(* The load generator's client side: connections, verification, the
   open loop, the closed-loop capacity phase and republishes. Concurrent
   work runs on OCaml domains, never on systhreads sharing one domain
   (a sender and a receiver systhread in one domain make the receiver's
   verify delay the sender's schedule). *)

module Wire = Aqv_util.Wire
module Frame_io = Aqv_serve.Frame_io
open Aqv

(* ------------------------------ failures ---------------------------- *)

(* Every failed operation by reason: client rejections per
   [Semantics.rejection], refusals, transport errors, bad or missing
   republish acks. *)
type tally = { mu : Mutex.t; reasons : (string, int) Hashtbl.t }

let tally () = { mu = Mutex.create (); reasons = Hashtbl.create 8 }

let fail t reason =
  Mutex.lock t.mu;
  Hashtbl.replace t.reasons reason (1 + Option.value (Hashtbl.find_opt t.reasons reason) ~default:0);
  Mutex.unlock t.mu

let failures t = Hashtbl.fold (fun _ n acc -> acc + n) t.reasons 0
let reasons t = List.sort compare (Hashtbl.fold (fun k n acc -> (k, n) :: acc) t.reasons [])

(* ----------------------------- connections -------------------------- *)

let read_timeout = 60.

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (* requests are whole frames written in one call; the client never
     waits on Nagle, so what latency shows is the server's socket path *)
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Frame_io.set_recv_timeout fd read_timeout;
  Frame_io.set_send_timeout fd read_timeout;
  fd

let close fd = try Unix.close fd with Unix.Unix_error _ -> ()

let read_reply fd =
  match Frame_io.read_frame fd with
  | Some bytes -> bytes
  | None -> failwith "connection closed"

(* ----------------------------- verification ------------------------ *)

(* Decode and verify one reply; [Error reason] names the failure. *)
let check ctx query bytes =
  match Tracer.span "client.decode_reply" (fun () -> Protocol.decode_reply (Wire.reader bytes)) with
  | exception (Failure _ | Invalid_argument _) -> Error "protocol.malformed_reply"
  | Protocol.Answer resp -> (
    match Tracer.span "client.verify" (fun () -> Client.verify ctx query resp) with
    | Ok () -> Ok ()
    | Error r -> Error ("client.reject." ^ Client.rejection_to_string r))
  | Protocol.Refused _ -> Error "server.refused"
  | _ -> Error "protocol.unexpected_reply"

let record tally = function Ok () -> () | Error reason -> fail tally reason

(* Closed loop on one connection, each reply verified as it arrives:
   the warm-up and the read after recovery. A transport error fails the
   request it hit and every one after it. *)
let sequential ~port ~ctx ~tally (reqs : (Query.t * string) array) =
  let rec go fd i =
    if i < Array.length reqs then
      let q, payload = reqs.(i) in
      match
        ignore (Frame_io.write_frame fd payload);
        read_reply fd
      with
      | bytes ->
        record tally (check ctx q bytes);
        go fd (i + 1)
      | exception (Failure _ | Unix.Unix_error _ | Frame_io.Timeout) ->
        for _ = i to Array.length reqs - 1 do
          fail tally "transport"
        done
  in
  match connect port with
  | fd -> Fun.protect ~finally:(fun () -> close fd) (fun () -> go fd 0)
  | exception Unix.Unix_error _ ->
    for _ = 1 to Array.length reqs do
      fail tally "transport"
    done

(* ------------------------------ open loop --------------------------- *)

type open_loop = {
  latency_s : float array;  (** due → verified, per request; nan if failed *)
  late_s : float array;  (** send time − due time, per request *)
  reply_bytes : int array;  (** reply frame size (payload + 4-byte header) *)
  traced : bool array;  (** whether the request was traced *)
}

let sleep_until t =
  let d = t -. Unix.gettimeofday () in
  if d > 0. then Unix.sleepf d

(* [count] requests at [rate] per second over [conns] connections, each
   request sent when it is due on a connection with nothing in flight; a
   receiver domain verifies the replies as they arrive. A request's
   latency runs from when it was due, so a stall counts against every
   request due while it lasts, including those the sender had to hold
   back because every connection was busy (its lateness is recorded).
   With tracing on, every other request is traced; spans carry request
   ids from [first] on.

   Why not pipeline on one connection: the server's sockets batch small
   writes (Nagle) while a reply is unacknowledged, and a client
   acknowledges a reply with its next request. Once two replies are
   outstanding, each reply then waits for the next request, about one
   interval of the schedule; a pipelined connection falls into that
   state at its first hiccup or not at all, so its median latency came
   out either 0.6 ms or 2.8 ms, run by run. With one request in flight
   per connection, the request that a reply answers also acknowledges
   the previous reply, and the latency is the request path's. *)
let open_loop ~port ~ctx ~tally ~rate ~conns ~first (reqs : (Query.t * string) array) =
  let count = Array.length reqs in
  let fds = Array.init conns (fun _ -> connect port) in
  let in_flight = Array.init conns (fun _ -> Atomic.make (-1)) in
  let start = Unix.gettimeofday () +. 0.02 in
  let due i = start +. (float_of_int i /. rate) in
  let latency_s = Array.make count Float.nan in
  let late_s = Array.make count 0. in
  let reply_bytes = Array.make count 0 in
  let traced = Array.init count (fun i -> !Tracer.enabled && i land 1 = 1) in
  let failed_from i =
    for _ = i to count - 1 do
      fail tally "transport"
    done
  in
  let receiver =
    Domain.spawn (fun () ->
        let receive c =
          let i = Atomic.get in_flight.(c) in
          let bytes = read_reply fds.(c) in
          Atomic.set in_flight.(c) (-1);
          reply_bytes.(i) <- String.length bytes + 4;
          let verified () =
            Tracer.span ~t0:(due i) ~req:(first + i) "request" (fun () -> check ctx (fst reqs.(i)) bytes)
          in
          match if traced.(i) then verified () else Tracer.muted verified with
          | Ok () -> latency_s.(i) <- Unix.gettimeofday () -. due i
          | Error reason -> fail tally reason
        in
        let received = ref 0 in
        try
          while !received < count do
            match Unix.select (Array.to_list fds) [] [] read_timeout with
            | [], _, _ -> raise Frame_io.Timeout
            | ready, _, _ ->
              Array.iteri
                (fun c fd ->
                  if List.mem fd ready then begin
                    receive c;
                    incr received
                  end)
                fds
          done
        with Failure _ | Unix.Unix_error _ | Frame_io.Timeout -> failed_from !received)
  in
  let rec free_conn () =
    match Array.find_index (fun a -> Atomic.get a < 0) in_flight with
    | Some c -> c
    | None ->
      Unix.sleepf 50e-6;
      free_conn ()
  in
  (try
     for i = 0 to count - 1 do
       sleep_until (due i);
       let c = free_conn () in
       late_s.(i) <- Unix.gettimeofday () -. due i;
       Atomic.set in_flight.(c) i;
       ignore (Frame_io.write_frame fds.(c) (snd reqs.(i)))
     done
   with Failure _ | Unix.Unix_error _ | Frame_io.Timeout ->
     (* the receiver then times out and counts what is missing *)
     Array.iter (fun fd -> try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ()) fds);
  Domain.join receiver;
  Array.iter close fds;
  { latency_s; late_s; reply_bytes; traced }

(* ---------------------------- capacity ------------------------------ *)

type capacity = {
  replies : ((int * string) * int) list;
      (** distinct (request, reply bytes) pairs — the request by the
          index of its first use — with how many replies carried them;
          "" for a transport error *)
  count : int;  (** replies received *)
  elapsed_s : float;
  first : int;  (** first request index used *)
  last : int;  (** one past the last *)
}

(* Closed loop, no think time: [conns] connections, one domain each,
   sending the next request as soon as the previous reply arrives, for
   [seconds]. Replies are kept, not verified: verification runs after
   the window, so it does not compete with the server for CPU.
   Verification is a pure function of (request, reply bytes), so only
   distinct pairs are kept, with their counts: on a hot set the phase
   repeats a few hundred pairs tens of thousands of times. *)
let capacity ~port ~conns ~seconds ~first (payloads : string array) =
  let n = Array.length payloads in
  let next = Atomic.make first in
  let ready = Atomic.make 0 in
  let go = Atomic.make false in
  let t_start = ref 0. in
  let worker () =
    let fd = connect port in
    let seen = Hashtbl.create 1024 in
    let keep i bytes =
      let key = (payloads.(i), bytes) in
      match Hashtbl.find_opt seen key with
      | Some (first, times) -> Hashtbl.replace seen key (first, times + 1)
      | None -> Hashtbl.replace seen key (i, 1)
    in
    Atomic.incr ready;
    while not (Atomic.get go) do
      Domain.cpu_relax ()
    done;
    let deadline = !t_start +. seconds in
    let rec loop count last =
      if Unix.gettimeofday () >= deadline then (count, last)
      else
        let i = Atomic.fetch_and_add next 1 mod n in
        match
          ignore (Frame_io.write_frame fd payloads.(i));
          read_reply fd
        with
        | bytes ->
          keep i bytes;
          loop (count + 1) (Unix.gettimeofday ())
        | exception (Failure _ | Unix.Unix_error _ | Frame_io.Timeout) ->
          keep i "";
          (count + 1, last)
    in
    let count, last = loop 0 !t_start in
    close fd;
    (Hashtbl.fold (fun (_, bytes) (i, times) acc -> ((i, bytes), times) :: acc) seen [], count, last)
  in
  let domains = List.init conns (fun _ -> Domain.spawn worker) in
  while Atomic.get ready < conns do
    Domain.cpu_relax ()
  done;
  t_start := Unix.gettimeofday ();
  Atomic.set go true;
  let results = List.map Domain.join domains in
  let t_end = List.fold_left (fun m (_, _, last) -> Float.max m last) !t_start results in
  {
    replies = List.concat_map (fun (r, _, _) -> r) results;
    count = List.fold_left (fun acc (_, c, _) -> acc + c) 0 results;
    elapsed_s = t_end -. !t_start;
    first;
    last = Atomic.get next;
  }

(* Verify the capacity phase's replies on [domains] domains in parallel,
   counting each verdict once per reply that carried the pair. *)
let verify_all ~domains ~ctx ~tally ~query (replies : ((int * string) * int) list) =
  let arr = Array.of_list replies in
  let part d () =
    let i = ref d in
    while !i < Array.length arr do
      let (idx, bytes), times = arr.(!i) in
      let verdict =
        if bytes = "" then Error "transport" else Tracer.muted (fun () -> check ctx (query idx) bytes)
      in
      (match verdict with
      | Ok () -> ()
      | Error reason ->
        for _ = 1 to times do
          fail tally reason
        done);
      i := !i + domains
    done
  in
  let spawned = List.init (domains - 1) (fun d -> Domain.spawn (part (d + 1))) in
  part 0 ();
  List.iter Domain.join spawned

(* ----------------------------- republish ---------------------------- *)

(* Send one Republish frame on its own connection and wait for the ack.
   [Ok (epoch, seconds)] from send to ack. *)
let republish ~port payload =
  let t0 = Unix.gettimeofday () in
  match
    let fd = connect port in
    Fun.protect
      ~finally:(fun () -> close fd)
      (fun () ->
        ignore (Frame_io.write_frame fd payload);
        Protocol.decode_reply (Wire.reader (read_reply fd)))
  with
  | Protocol.Republished e -> Ok (e, Unix.gettimeofday () -. t0)
  | Protocol.Refused m -> Error ("refused: " ^ m)
  | _ -> Error "unexpected reply"
  | exception (Failure m | Unix.Unix_error (_, m, _)) -> Error m
  | exception Frame_io.Timeout -> Error "timeout"

let stats ~port =
  let fd = connect port in
  Fun.protect
    ~finally:(fun () -> close fd)
    (fun () ->
      let w = Wire.writer () in
      Protocol.encode_request w Protocol.Get_stats;
      ignore (Frame_io.write_frame fd (Wire.contents w));
      match Protocol.decode_reply (Wire.reader (read_reply fd)) with
      | Protocol.Stats kvs -> kvs
      | _ -> failwith "Get_stats: unexpected reply")
