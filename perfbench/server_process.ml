(* The server under test: a separate `aqv_net serve --dir` process,
   started through exec, found through the port file it writes once it
   has recovered its store and bound its socket. *)

type t = {
  pid : int;
  port : int;
  ready_at : float;  (** when the server wrote its port file (the file's mtime) *)
}

let binary = "_build/default/bin/aqv_net.exe"

(* The port and the file's mtime. The server writes the file atomically
   (temp file, rename), so it is complete once it exists. Its mtime says
   when the server got there, so the poll can be coarse: a benchmark that
   wakes every few milliseconds competes with the server it is timing. *)
let await_port ~pid port_file =
  let deadline = Unix.gettimeofday () +. 60. in
  let rec poll () =
    match In_channel.with_open_bin port_file In_channel.input_all with
    | s when String.trim s <> "" ->
      (int_of_string (String.trim s), (Unix.stat port_file).Unix.st_mtime)
    | _ | (exception Sys_error _) ->
      (match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ -> ()
      | _ -> failwith "server exited before writing its port file");
      if Unix.gettimeofday () > deadline then failwith "server never wrote its port file";
      Unix.sleepf 0.02;
      poll ()
  in
  poll ()

(* Start a server over [dir] and return once its port file exists. The
   server's own output goes to [log], never to the benchmark's stdout. *)
let start ~dir ~log =
  let port_file = Filename.concat dir "port" in
  (try Sys.remove port_file with Sys_error _ -> ());
  let out = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close out; Unix.close devnull)
      (fun () ->
        Unix.create_process binary
          [| binary; "serve"; "--dir"; dir; "--port"; "0"; "--port-file"; port_file |]
          devnull out out)
  in
  match await_port ~pid port_file with
  | port, ready_at -> { pid; port; ready_at }
  | exception e ->
    (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
    ignore (Unix.waitpid [] pid);
    raise e

let rec wait pid =
  match Unix.waitpid [] pid with
  | _ -> ()
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait pid
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()

let kill t =
  (try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ());
  wait t.pid

(* Graceful stop: SIGTERM drains the engine; SIGKILL if it lingers. *)
let stop t =
  (try Unix.kill t.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = Unix.gettimeofday () +. 10. in
  let rec poll () =
    match Unix.waitpid [ Unix.WNOHANG ] t.pid with
    | 0, _ when Unix.gettimeofday () < deadline ->
      Unix.sleepf 0.01;
      poll ()
    | 0, _ -> kill t
    | _ -> ()
    | exception Unix.Unix_error _ -> ()
  in
  poll ()

let proc_file t name =
  In_channel.with_open_bin (Printf.sprintf "/proc/%d/%s" t.pid name) In_channel.input_all

(* A /proc/<pid>/status size in kB ("VmHWM", "VmRSS"), as MiB. *)
let status_mb t field =
  let prefix = field ^ ":" in
  let n = String.length prefix in
  let line =
    List.find
      (fun l -> String.length l > n && String.sub l 0 n = prefix)
      (String.split_on_char '\n' (proc_file t "status"))
  in
  Scanf.sscanf (String.sub line n (String.length line - n)) " %d kB" (fun kb -> float_of_int kb /. 1024.)

(* Peak resident set (VmHWM), MiB. *)
let peak_rss_mb t = status_mb t "VmHWM"

(* Resident set now (VmRSS), MiB. *)
let rss_mb t = status_mb t "VmRSS"

(* utime + stime, seconds, from /proc/<pid>/stat (fields 14 and 15,
   counted after the parenthesised command name). *)
let cpu_s t =
  let s = proc_file t "stat" in
  let after = String.rindex s ')' + 2 in
  let fields = Array.of_list (String.split_on_char ' ' (String.sub s after (String.length s - after))) in
  (float_of_string fields.(11) +. float_of_string fields.(12)) /. 100.
