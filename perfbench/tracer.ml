(* In-memory spans for the traced run: name, start, end, parent span
   and request id, recorded around calls into the program's public
   functions and written out when the run ends. Each domain appends to
   its own buffer (no lock on the hot path); [spans] merges them once
   the recording domains have finished. Disabled, a span is one branch
   around the call. *)

type span = {
  id : int;
  name : string;
  parent : int;  (** -1 for a root span *)
  req : int;  (** request id, -1 outside the request path *)
  t0 : float;
  t1 : float;
}

let enabled = ref false
let next_id = Atomic.make 0
let buffers_mu = Mutex.create ()
let buffers : span list ref list ref = ref []

type local = {
  buf : span list ref;  (** what this domain recorded *)
  mutable stack : (int * int) list;  (** open (span id, request id), innermost first *)
  mutable muted : bool;  (** this domain records nothing while set *)
}

let local =
  Domain.DLS.new_key (fun () ->
      let buf = ref [] in
      Mutex.lock buffers_mu;
      buffers := buf :: !buffers;
      Mutex.unlock buffers_mu;
      { buf; stack = []; muted = false })

(* Run [f] with this domain's recording switched off: the open loop
   traces every other request, so the untraced half measures what
   tracing costs. *)
let muted f =
  let l = Domain.DLS.get local in
  l.muted <- true;
  Fun.protect ~finally:(fun () -> l.muted <- false) f

(* Record [f ()] as a span starting at [t0] (default: now), a child of
   the innermost open span of this domain, inheriting its request id. *)
let span ?t0 ?req name f =
  let l = Domain.DLS.get local in
  if (not !enabled) || l.muted then f ()
  else begin
    let id = Atomic.fetch_and_add next_id 1 in
    let parent, req =
      match (l.stack, req) with
      | _, Some r -> ((match l.stack with (p, _) :: _ -> p | [] -> -1), r)
      | (p, r) :: _, None -> (p, r)
      | [], None -> (-1, -1)
    in
    let t0 = match t0 with Some t -> t | None -> Unix.gettimeofday () in
    l.stack <- (id, req) :: l.stack;
    Fun.protect
      ~finally:(fun () ->
        l.stack <- List.tl l.stack;
        l.buf := { id; name; parent; req; t0; t1 = Unix.gettimeofday () } :: !(l.buf))
      f
  end

let spans () =
  Mutex.lock buffers_mu;
  let all = List.concat_map (fun b -> !b) !buffers in
  Mutex.unlock buffers_mu;
  List.sort (fun a b -> compare a.id b.id) all

(* Self time: a span's duration minus the part its children cover
   (children of one span never overlap: they run in its domain, one
   after another). *)
let self_times spans =
  let covered = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace covered s.parent
          (s.t1 -. s.t0 +. Option.value (Hashtbl.find_opt covered s.parent) ~default:0.))
    spans;
  List.map
    (fun s -> (s, s.t1 -. s.t0 -. Option.value (Hashtbl.find_opt covered s.id) ~default:0.))
    spans

let write path spans =
  Out_channel.with_open_bin path (fun oc ->
      output_string oc "id\tname\tparent\treq\tstart_s\tend_s\n";
      List.iter
        (fun s ->
          Printf.fprintf oc "%d\t%s\t%d\t%d\t%.6f\t%.6f\n" s.id s.name s.parent s.req s.t0
            s.t1)
        spans)
