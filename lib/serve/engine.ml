module Wire = Aqv_util.Wire
module Metrics = Aqv_util.Metrics
module Histogram = Aqv_util.Histogram
module Protocol = Aqv.Protocol
module Ifmh = Aqv.Ifmh

let src = Logs.Src.create "aqv.serve" ~doc:"IFMH serving engine"

module Log = (val Logs.src_log src : Logs.LOG)

type publisher = {
  subscribe : Unix.file_descr -> from_epoch:int option -> unit;
  ship : base:Ifmh.t -> index:Ifmh.t -> Ifmh.delta -> unit;
  lag : unit -> int;
}

type config = {
  port : int;
  max_conns : int;
  idle_timeout : float;
  read_timeout : float;
  write_timeout : float;
  cache_capacity : int;
  stats_interval : float;
  drain_timeout : float;
  faults : Faults.t option;
  store : Aqv_store.Store.t option;
  accept_republish : bool;
  publisher : publisher option;
}

let default_config =
  {
    port = 7464;
    max_conns = 64;
    idle_timeout = 10.;
    read_timeout = 5.;
    write_timeout = 5.;
    cache_capacity = 1024;
    stats_interval = 0.;
    drain_timeout = 5.;
    faults = None;
    store = None;
    accept_republish = true;
    publisher = None;
  }

(* listen(2) backlog *)
let backlog = 64

(* The engine's counters: one Metrics scope per engine, keys in
   Get_stats order. Gauges are not counted here; {!stats} reads them
   from the serving state and splices them in. *)
let counter_keys =
  Metrics.keys
    [
      "req_query"; "req_rank"; "req_count"; "req_stats"; "req_republish";
      "req_subscribe"; "req_malformed"; "replies_refused"; "bytes_in"; "bytes_out";
      "cache_hits"; "cache_misses"; "conns_accepted"; "conns_refused";
      "sessions_dropped"; "index_swaps"; "log_appends"; "recoveries";
      "torn_tail_truncations"; "frames_coalesced"; "compactions"; "memo_pair_hits";
      "memo_fmh_hits"; "followers_connected"; "deltas_shipped"; "faults_delay";
      "faults_truncate"; "faults_drop";
    ]

let counter = Metrics.key counter_keys
let req_query = counter "req_query"
let req_rank = counter "req_rank"
let req_count = counter "req_count"
let req_stats = counter "req_stats"
let req_republish = counter "req_republish"
let req_subscribe = counter "req_subscribe"
let req_malformed = counter "req_malformed"
let replies_refused = counter "replies_refused"
let bytes_in = counter "bytes_in"
let bytes_out = counter "bytes_out"
let cache_hits = counter "cache_hits"
let cache_misses = counter "cache_misses"
let conns_accepted = counter "conns_accepted"
let conns_refused = counter "conns_refused"
let sessions_dropped = counter "sessions_dropped"
let index_swaps = counter "index_swaps"
let log_appends = counter "log_appends"
let recoveries = counter "recoveries"
let torn_tail_truncations = counter "torn_tail_truncations"
let frames_coalesced = counter "frames_coalesced"
let compactions = counter "compactions"
let memo_pair_hits = counter "memo_pair_hits"
let memo_fmh_hits = counter "memo_fmh_hits"
let followers_connected = counter "followers_connected"
let deltas_shipped = counter "deltas_shipped"
let faults_delay = counter "faults_delay"
let faults_truncate = counter "faults_truncate"
let faults_drop = counter "faults_drop"

type t = {
  config : config;
  index : Ifmh.t Atomic.t;
  listen_sock : Unix.file_descr;
  bound_port : int;
  counters : Metrics.scope;
  latency : Histogram.t;  (* guarded by [latency_mu] *)
  latency_mu : Mutex.t;
  cache : Cache.t;
  stopped : bool Atomic.t;
  mu : Mutex.t;
  republish_mu : Mutex.t;
  mutable active : int;
  mutable compactor : Thread.t option;  (* guarded by [mu] *)
  (* fragment-cache counters at the last index swap, guarded by [mu]
     together with the swap itself: the post-republish split reported
     in stats is rebased on these *)
  mutable frag_hits_at_swap : int;
  mutable frag_misses_at_swap : int;
}

let create config index =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt sock Unix.SO_REUSEADDR true;
  Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_loopback, config.port));
  Unix.listen sock backlog;
  let bound_port =
    match Unix.getsockname sock with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> config.port
  in
  let t =
    {
      config;
      index = Atomic.make index;
      listen_sock = sock;
      bound_port;
      counters = Metrics.scope counter_keys;
      latency = Histogram.create ();
      latency_mu = Mutex.create ();
      cache = Cache.create ~capacity:config.cache_capacity;
      stopped = Atomic.make false;
      mu = Mutex.create ();
      republish_mu = Mutex.create ();
      active = 0;
      compactor = None;
      frag_hits_at_swap = 0;
      frag_misses_at_swap = 0;
    }
  in
  t

let port t = t.bound_port
let tick t k = Metrics.incr t.counters k
let stop t = Atomic.set t.stopped true
let index t = Atomic.get t.index

(* Hot swap: install a new index without restarting. The epoch must
   strictly advance — swaps serialize under [t.mu], so two racing
   republishes cannot install out of order; request paths never take the
   lock, they just [Atomic.get] a snapshot. The response cache needs no
   flushing: keys embed the epoch of the snapshot that produced them, so
   pre-swap entries simply become unreachable. *)
let swap_index t index' =
  Mutex.lock t.mu;
  let installed = Ifmh.epoch index' > Ifmh.epoch (Atomic.get t.index) in
  if installed then begin
    Atomic.set t.index index';
    (* rebase the post-republish fragment split on the new index's
       cache (the same carried object after an apply, a fresh one after
       a snapshot install — either way hits after this point are
       post-republish hits) *)
    let h, m = Aqv.Fragment.counters (Ifmh.fragments index') in
    t.frag_hits_at_swap <- h;
    t.frag_misses_at_swap <- m
  end;
  Mutex.unlock t.mu;
  if installed then tick t index_swaps;
  installed

(* Raised internally when fault injection kills the reply: the session
   ends, but it is not an error of the session machinery itself. *)
exception Fault_closed

let encode_reply_bytes reply =
  let w = Wire.writer () in
  Protocol.encode_reply w reply;
  Wire.contents w

let now_us () = int_of_float (Unix.gettimeofday () *. 1e6)

(* Compaction runs off the reply path: rewriting the snapshot of a
   large index (encode + write + fsync) can outlast a client's read
   timeout, and the triggering delta is already durable in the log, so
   the Republished ack must not wait for it. The background step
   retakes [republish_mu] — compaction swaps the store's log handle, so
   it serializes with appends exactly like a republish — and rechecks
   the policy under the lock, so a compaction that already happened (or
   a log that grew past the threshold again) is handled correctly.
   Failure only logs: an oversized log is still a correct log. *)
let compact_store t store =
  Mutex.lock t.republish_mu;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.republish_mu)
    (fun () ->
      try
        if Aqv_store.Store.maybe_compact store (Atomic.get t.index) then begin
          tick t compactions;
          Log.info (fun m ->
              m "store compacted at epoch %d" (Ifmh.epoch (Atomic.get t.index)))
        end
      with Aqv_store.Error.Error e ->
        Log.warn (fun m ->
            m "store compaction failed: %s" (Aqv_store.Error.to_string e)))

(* At most one compactor thread at a time; a due-check that races with
   a finishing compaction just finds the fresh log not due next time. *)
let schedule_compaction t =
  match t.config.store with
  | None -> ()
  | Some store when not (Aqv_store.Store.compaction_due store) -> ()
  | Some store ->
      Mutex.lock t.mu;
      if Option.is_none t.compactor then
        t.compactor <-
          Some
            (Thread.create
               (fun () ->
                 Fun.protect
                   ~finally:(fun () ->
                     Mutex.lock t.mu;
                     t.compactor <- None;
                     Mutex.unlock t.mu)
                   (fun () -> compact_store t store))
               ());
      Mutex.unlock t.mu

(* The single mutation path shared by the wire ([Protocol.Republish])
   and a follower replaying its replication stream. The whole path
   serializes under [republish_mu] so the durability order is
   unambiguous: replay the delta, append+fsync it to the store's log,
   swap, ship to subscribers, and only then ack — a crash at any point
   before the ack leaves a log the recovery path replays to at most the
   acked epoch (durable-before-ack), and a delta reaches a follower
   strictly after its fsync here (durable-before-ship). A store append
   failure refuses the republish without touching serving state. *)
let republish t delta =
  Mutex.lock t.republish_mu;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.republish_mu)
    (fun () ->
      let base = Atomic.get t.index in
      (* memo ticks happen only inside rebuilds, which all serialize
         under [republish_mu], so the delta around this apply is
         attributable to it alone *)
      let m0 = Metrics.snapshot () in
      match Ifmh.apply_delta delta base with
      | exception (Failure msg | Invalid_argument msg) -> Error msg
      | index' -> (
        let dm = Metrics.diff (Metrics.snapshot ()) m0 in
        Metrics.add t.counters memo_pair_hits dm.Metrics.memo_pair_hits;
        Metrics.add t.counters memo_fmh_hits dm.Metrics.memo_fmh_hits;
        if Ifmh.epoch index' <= Ifmh.epoch base then
          Error "Engine: republish does not advance the epoch"
        else
          match
            Option.iter (fun s -> Aqv_store.Store.append s ~base delta) t.config.store
          with
          | exception Aqv_store.Error.Error e ->
            Error ("Store: " ^ Aqv_store.Error.to_string e)
          | () ->
            Option.iter (fun _ -> tick t log_appends) t.config.store;
            ignore (swap_index t index');
            Option.iter
              (fun p ->
                p.ship ~base ~index:index' delta;
                tick t deltas_shipped)
              t.config.publisher;
            Log.info (fun m ->
                m "republished: now serving epoch %d" (Ifmh.epoch index'));
            schedule_compaction t;
            Ok (Ifmh.epoch index')))

(* Full-state install, the follower's answer to [Snapshot_frame]: make
   the new index durable (snapshot rewrite + log reset — an interrupted
   compaction is benign, recovery skips stale frames) BEFORE serving
   it, mirroring the append-then-swap order of [republish]. *)
let install_snapshot t index' =
  Mutex.lock t.republish_mu;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.republish_mu)
    (fun () ->
      if Ifmh.epoch index' <= Ifmh.epoch (Atomic.get t.index) then
        Error "Engine: snapshot does not advance the epoch"
      else
        match
          Option.iter (fun s -> Aqv_store.Store.compact s index') t.config.store
        with
        | exception Aqv_store.Error.Error e ->
          Error ("Store: " ^ Aqv_store.Error.to_string e)
        | () ->
          Option.iter (fun _ -> tick t compactions) t.config.store;
          ignore (swap_index t index');
          Log.info (fun m ->
              m "snapshot installed: now serving epoch %d" (Ifmh.epoch index'));
          Ok (Ifmh.epoch index'))

let recovered t ~torn_tail ~coalesced =
  tick t recoveries;
  Metrics.add t.counters frames_coalesced coalesced;
  if torn_tail then tick t torn_tail_truncations

(* The Get_stats list. Counters come from the engine's scope; gauges
   are read here, never pushed: the epoch and the fragment split from
   the served index (under [mu], so both describe the same swap), the
   follower lag from the publisher. *)
let stats t =
  let index, (base_h, base_m) =
    Mutex.lock t.mu;
    let v = (Atomic.get t.index, (t.frag_hits_at_swap, t.frag_misses_at_swap)) in
    Mutex.unlock t.mu;
    v
  in
  let hits, misses = Aqv.Fragment.counters (Ifmh.fragments index) in
  let gauges_before = function
    | "followers_connected" ->
      [
        ("frag_hits", hits);
        ("frag_misses", misses);
        ("frag_hits_post_republish", max 0 (hits - base_h));
        ("frag_misses_post_republish", max 0 (misses - base_m));
        ("epoch", Ifmh.epoch index);
      ]
    | "faults_delay" ->
      let lag = match t.config.publisher with Some p -> p.lag () | None -> 0 in
      [ ("follower_lag_frames", lag) ]
    | _ -> []
  in
  let counters =
    List.concat_map
      (fun ((name, _) as c) -> gauges_before name @ [ c ])
      (Metrics.to_assoc t.counters)
  in
  Mutex.lock t.latency_mu;
  let h = t.latency in
  let latency =
    [
      ("latency_us_count", Histogram.count h);
      ("latency_us_max", Histogram.max_value h);
      ("latency_us_p50", Histogram.percentile h 50);
      ("latency_us_p90", Histogram.percentile h 90);
      ("latency_us_p99", Histogram.percentile h 99);
    ]
    @ List.map (fun (b, c) -> (Printf.sprintf "latency_us_le_%d" b, c)) (Histogram.buckets h)
  in
  Mutex.unlock t.latency_mu;
  counters @ latency

(* One line for the periodic and final log, read off the stats list. *)
let pp_stats ppf kvs =
  let get k = List.assoc k kvs in
  Format.fprintf ppf
    "req=%d (q=%d r=%d c=%d s=%d bad=%d) refused=%d cache=%d/%d frag=%d/%d \
     conns=%d shed=%d dropped=%d in=%dB out=%dB lat[n=%d max=%d p50=%d p90=%d p99=%d]"
    (get "req_query" + get "req_rank" + get "req_count" + get "req_stats"
   + get "req_republish")
    (get "req_query") (get "req_rank") (get "req_count") (get "req_stats")
    (get "req_malformed") (get "replies_refused") (get "cache_hits")
    (get "cache_hits" + get "cache_misses")
    (get "frag_hits")
    (get "frag_hits" + get "frag_misses")
    (get "conns_accepted") (get "conns_refused") (get "sessions_dropped")
    (get "bytes_in") (get "bytes_out") (get "latency_us_count") (get "latency_us_max")
    (get "latency_us_p50") (get "latency_us_p90") (get "latency_us_p99")

(* What a session should do with one decoded request: answer it, or
   hand the connection over to the replication publisher. *)
type action = Reply of string | Handoff of { from_epoch : int option }

let refuse t msg =
  tick t replies_refused;
  Reply (encode_reply_bytes (Protocol.Refused msg))

(* A query-class request, answered from the response cache when it can
   be. One index snapshot per request: the reply and its cache key
   always describe the same epoch, even if a swap lands mid-request. *)
let answer t kind payload request =
  tick t kind;
  let index = Atomic.get t.index in
  let key = string_of_int (Ifmh.epoch index) ^ ":" ^ payload in
  match Cache.find t.cache key with
  | Some bytes ->
    tick t cache_hits;
    Reply bytes
  | None ->
    tick t cache_misses;
    let reply = Protocol.handle index request in
    (match reply with Protocol.Refused _ -> tick t replies_refused | _ -> ());
    let bytes = encode_reply_bytes reply in
    Cache.add t.cache key bytes;
    Reply bytes

(* Compute (or fetch from cache) the encoded reply for one raw request
   payload. Get_stats and Republish bypass the cache — the one changes
   with every request, the other mutates serving state. Malformed
   payloads become Refused, uniformly for Failure and Invalid_argument
   (Bytes/array bounds in decoders). *)
let reply_bytes_for t payload =
  match Protocol.decode_request (Wire.reader payload) with
  | exception (Failure msg | Invalid_argument msg) ->
    tick t req_malformed;
    refuse t msg
  | Protocol.Get_stats ->
    tick t req_stats;
    Reply (encode_reply_bytes (Protocol.Stats (stats t)))
  | Protocol.Subscribe { from_epoch } -> (
    tick t req_subscribe;
    match t.config.publisher with
    | Some _ -> Handoff { from_epoch }
    | None -> refuse t "Engine: replication not enabled")
  | Protocol.Republish delta -> (
    tick t req_republish;
    if not t.config.accept_republish then
      refuse t "Engine: read replica, republish to the primary"
    else
      match republish t delta with
      | Ok epoch -> Reply (encode_reply_bytes (Protocol.Republished epoch))
      | Error msg -> refuse t msg)
  | Protocol.Run_query _ as request -> answer t req_query payload request
  | Protocol.Run_rank _ as request -> answer t req_rank payload request
  | Protocol.Run_count _ as request -> answer t req_count payload request

let send_reply t fd bytes =
  let deliver () =
    let n = Frame_io.write_frame ~timeout:t.config.write_timeout fd bytes in
    Metrics.add t.counters bytes_out n
  in
  match t.config.faults with
  | None -> deliver ()
  | Some f -> (
    let framed_len = String.length bytes + 4 in
    match Faults.draw f ~frame_len:framed_len with
    | None -> deliver ()
    | Some (Faults.Delay s) ->
      tick t faults_delay;
      Thread.delay s;
      deliver ()
    | Some (Faults.Truncate k) ->
      tick t faults_truncate;
      Frame_io.write_raw fd (String.sub (Frame_io.frame bytes) 0 k);
      raise Fault_closed
    | Some Faults.Drop ->
      tick t faults_drop;
      raise Fault_closed)

let session t fd =
  let rec loop () =
    match
      Frame_io.read_frame ~header_timeout:t.config.idle_timeout
        ~body_timeout:t.config.read_timeout fd
    with
    | None -> () (* clean close *)
    | Some payload -> (
      Metrics.add t.counters bytes_in (String.length payload + 4);
      let t0 = now_us () in
      let action = reply_bytes_for t payload in
      let us = now_us () - t0 in
      Mutex.lock t.latency_mu;
      Histogram.observe t.latency us;
      Mutex.unlock t.latency_mu;
      match action with
      | Reply bytes ->
        send_reply t fd bytes;
        loop ()
      | Handoff { from_epoch } ->
        (* the connection becomes a one-way replication stream; the
           publisher's feeder runs right here, in this session thread,
           so the fd stays owned (and finally closed) by the session *)
        let publisher = Option.get t.config.publisher in
        tick t followers_connected;
        Fun.protect
          ~finally:(fun () -> Metrics.add t.counters followers_connected (-1))
          (fun () -> publisher.subscribe fd ~from_epoch))
  in
  loop ()

let drop_session t exn =
  tick t sessions_dropped;
  Log.info (fun m -> m "session dropped: %s" (Printexc.to_string exn))

let session_thread t fd =
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Mutex.lock t.mu;
      t.active <- t.active - 1;
      Mutex.unlock t.mu)
    (fun () ->
      try session t fd with
      | (Out_of_memory | Stack_overflow | Assert_failure _) as e ->
        (* never swallow runtime-fatal conditions *)
        Log.err (fun m -> m "FATAL in session: %s" (Printexc.to_string e));
        raise e
      | Fault_closed -> () (* injected fault already counted *)
      | Frame_io.Timeout as e -> drop_session t e
      | Unix.Unix_error _ as e -> drop_session t e
      | Failure _ as e -> drop_session t e)

(* Runs on the accept loop: a fresh socket's empty send buffer takes
   the short refusal frame without blocking (the send timeout bounds
   the worst case), so shedding spawns no thread. *)
let shed t fd =
  tick t conns_refused;
  (try
     ignore
       (Frame_io.write_frame ~timeout:1.0 fd
          (encode_reply_bytes (Protocol.Refused "overloaded")))
   with Unix.Unix_error _ | Frame_io.Timeout -> ());
  try Unix.close fd with Unix.Unix_error _ -> ()

let stats_logger t =
  ignore
    (Thread.create
       (fun () ->
         let rec loop elapsed =
           if not (Atomic.get t.stopped) then
             if elapsed >= t.config.stats_interval then begin
               Log.app (fun m -> m "%a" pp_stats (stats t));
               loop 0.
             end
             else begin
               Thread.delay 0.25;
               loop (elapsed +. 0.25)
             end
         in
         loop 0.)
       ())

(* The accept loop polls [stopped] between short selects instead of
   blocking in accept(2): signal handlers only set the flag, so
   shutdown needs no pthread-kill / close-from-another-thread games. *)
let serve t =
  if t.config.stats_interval > 0. then stats_logger t;
  let rec accept_loop () =
    if not (Atomic.get t.stopped) then begin
      let readable =
        match Unix.select [ t.listen_sock ] [] [] 0.2 with
        | r, _, _ -> r <> []
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> false
      in
      let accepted =
        if not readable then None
        else
          match Unix.accept t.listen_sock with
          | conn, _ -> Some conn
          | exception Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
            ->
            None
      in
      match accepted with
      | None -> accept_loop ()
      | Some conn ->
        let admitted =
          Mutex.lock t.mu;
          let ok = t.active < t.config.max_conns in
          if ok then t.active <- t.active + 1;
          Mutex.unlock t.mu;
          ok
        in
        if not admitted then begin
          shed t conn;
          accept_loop ()
        end
        else begin
          tick t conns_accepted;
          ignore (Thread.create (fun () -> session_thread t conn) ());
          accept_loop ()
        end
    end
  in
  accept_loop ();
  (* drain in-flight sessions, bounded *)
  let deadline = Unix.gettimeofday () +. t.config.drain_timeout in
  Mutex.lock t.mu;
  while t.active > 0 && Unix.gettimeofday () < deadline do
    Mutex.unlock t.mu;
    Thread.delay 0.05;
    Mutex.lock t.mu
  done;
  let leftover = t.active in
  let compactor = t.compactor in
  Mutex.unlock t.mu;
  if leftover > 0 then
    Log.warn (fun m -> m "drain timeout: %d session(s) still active" leftover);
  (* the caller closes the store after [serve] returns, so a background
     compaction must not outlive us *)
  Option.iter Thread.join compactor;
  (try Unix.close t.listen_sock with Unix.Unix_error _ -> ());
  Log.info (fun m -> m "stopped: %a" pp_stats (stats t))
