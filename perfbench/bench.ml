(* The repository benchmark.

     perfbench/run.sh --workload read-hot --seed 1 --seconds 10 --trace 0

   One load-generator process holds the owner and the clients. It builds
   the workload's table and a real RSA-512 key from the seed, builds and
   publishes the index through the durable store, and starts the server
   as a separate `aqv_net serve --dir` process. Then it drives the
   server in rounds of owner update, republish, an open loop over two
   connections and a closed-loop capacity phase, and ends with SIGKILL
   restarts. Every reply
   is verified with [Client.verify]; every republish ack must carry its
   expected epoch; the restarted server must answer at the last acked
   epoch. Any failure makes the run incorrect and the exit code 1.

   With --trace 0 the last stdout line carries the end-to-end metrics;
   with --trace 1, the per-layer metrics of a traced run. The line
   before it is the full record: provenance, sample counts, diagnostics
   and failures by reason. Each run also leaves the open loop's
   latencies (and, traced, its spans) under perfbench/_work/.

     perfbench/run.sh compare BENCHMARK.json DIR_A DIR_B
     perfbench/run.sh summary BENCHMARK.json DIR

   read saved runs (one stdout per file) and compare or summarise them
   (see compare.ml). *)

open Perfbench
module Json = Aqv_util.Json
module Metrics = Aqv_util.Metrics
module Wire = Aqv_util.Wire
module Table = Aqv_db.Table
module Signer = Aqv_crypto.Signer
module Store = Aqv_store.Store
open Aqv

let now = Unix.gettimeofday

(* ------------------------------ arguments --------------------------- *)

type args = { workload : Workloads.t; seed : int; seconds : int; trace : bool }

let usage () =
  prerr_endline
    "usage: bench --workload NAME --seed N --seconds S --trace 0|1\n\
    \       bench compare BENCHMARK.json DIR_A DIR_B\n\
    \       bench summary BENCHMARK.json DIR";
  exit 2

let parse_args argv =
  let rec go acc = function
    | [] -> acc
    | flag :: v :: rest when String.length flag > 2 && String.sub flag 0 2 = "--" ->
      go ((flag, v) :: acc) rest
    | _ -> usage ()
  in
  let kv = go [] argv in
  let get k = match List.assoc_opt k kv with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
  if List.exists (fun (k, _) -> not (List.mem k [ "--workload"; "--seed"; "--seconds"; "--trace" ])) kv
  then usage ();
  let workload =
    match Workloads.find (get "--workload") with
    | Some w -> w
    | None ->
      Printf.eprintf "unknown workload %s (one of: %s)\n" (get "--workload")
        (String.concat ", " (List.map (fun w -> w.Workloads.name) Workloads.all));
      exit 2
  in
  let seconds = int "--seconds" in
  if seconds < 1 then usage ();
  { workload; seed = int "--seed"; seconds; trace = int "--trace" = 1 }

(* ----------------------------- provenance --------------------------- *)

(* The checkout's commit, read from .git without running git (a plain
   export has none). *)
let commit () =
  let read p = String.trim (In_channel.with_open_bin p In_channel.input_all) in
  match read ".git/HEAD" with
  | exception Sys_error _ -> "unknown"
  | head when String.length head > 5 && String.sub head 0 5 = "ref: " -> (
    let r = String.sub head 5 (String.length head - 5) in
    match read (Filename.concat ".git" r) with
    | sha -> sha
    | exception Sys_error _ -> (
      match
        List.find_map
          (fun l ->
            match String.split_on_char ' ' l with
            | [ sha; name ] when name = r -> Some sha
            | _ -> None)
          (String.split_on_char '\n' (read ".git/packed-refs"))
      with
      | Some sha -> sha
      | None | (exception Sys_error _) -> "unknown"))
  | sha -> sha

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

let rec rm_rf p =
  match Sys.is_directory p with
  | true ->
    Array.iter (fun f -> rm_rf (Filename.concat p f)) (Sys.readdir p);
    Sys.rmdir p
  | false -> Sys.remove p
  | exception Sys_error _ -> ()

(* ------------------------------- metrics ---------------------------- *)

type metric = { name : string; value : float; unit_ : string; samples : int }

let m name unit_ samples value = { name; value; unit_; samples }
let us s = s *. 1e6

(* A statistic without a sample (every republish failed, say) has no
   value; the run is then incorrect anyway. *)
let number x = if Float.is_finite x then Json.Float x else Json.Null

let count_of (stats : (string * int) list) k = Option.value (List.assoc_opt k stats) ~default:0

let delta_stats ~before ~after k = count_of after k - count_of before k

(* ------------------------------- the run ---------------------------- *)

let republish_payload delta =
  let w = Wire.writer () in
  Protocol.encode_request w (Protocol.Republish delta);
  Wire.contents w

(* A keypair whose signing is traced (the owner's signatures run on the
   build pool's domains; each records its own spans). *)
let traced_keypair (kp : Signer.keypair) =
  { kp with Signer.sign = (fun d -> Tracer.span "crypto.sign" (fun () -> kp.Signer.sign d)) }

(* Repetitions of every set-up and restart in a run; their median is
   reported. *)
let reps = 5

(* The timed part of a run is this many rounds of owner update,
   republish and reads, so every timing's samples spread over the whole
   run: the host's speed drifts by a fifth over a few seconds, and the
   median of samples taken in one burst carries that drift into the
   run's figure. *)
let rounds = 16

(* Each distinct request of [rs] once, in order of first use. *)
let distinct (rs : (Query.t * string) array) =
  let seen = Hashtbl.create 64 in
  Array.of_list
    (List.rev
       (Array.fold_left
          (fun acc ((_, p) as r) ->
            if Hashtbl.mem seen p then acc
            else begin
              Hashtbl.replace seen p ();
              r :: acc
            end)
          [] rs))

let run args =
  let w = args.workload and seed = args.seed in
  if not (Sys.file_exists Server_process.binary) then begin
    Printf.eprintf "bench: %s not built (run through perfbench/run.sh)\n" Server_process.binary;
    exit 2
  end;
  let nproc = Domain.recommended_domain_count () in
  if Sys.getenv_opt "AQV_DOMAINS" = None then Unix.putenv "AQV_DOMAINS" (string_of_int nproc);
  let aqv_domains = Sys.getenv "AQV_DOMAINS" in
  Tracer.enabled := args.trace;
  let work = Filename.concat "perfbench" (Filename.concat "_work" (Printf.sprintf "%s-%d" w.Workloads.name (Unix.getpid ()))) in
  mkdir_p work;
  let store_dir = Filename.concat work "store" and log = Filename.concat work "server.log" in
  let tally = Load.tally () in
  let attempted = ref 0 in
  let server = ref None in
  let stop_server () = Option.iter Server_process.stop !server; server := None in
  let finish () = stop_server (); rm_rf store_dir; rm_rf (Filename.concat work "replay") in
  (* wall time spent in each step, summed over its repetitions, for the
     record: what a run spends where *)
  let steps = ref [] in
  let step name f =
    let t0 = now () in
    let v = f () in
    let dt = now () -. t0 in
    (match List.assoc_opt name !steps with
    | Some total -> total := !total +. dt
    | None -> steps := (name, ref dt) :: !steps);
    v
  in
  Fun.protect ~finally:finish @@ fun () ->
  let inp = step "inputs" (fun () -> Workloads.inputs w ~seed) in
  let table = inp.Workloads.table in
  let keypair = if args.trace then traced_keypair inp.Workloads.keypair else inp.Workloads.keypair in

  (* set-up, [reps] times: build + publish + server start until its
     port file appears. Each owner-side timing starts from a compacted
     heap, so it does not pay for the garbage of the one before. *)
  let setup_s = Array.make reps 0. and build_s = Array.make reps 0. in
  let build_counts = ref None in
  let setup r =
    stop_server ();
    Gc.compact ();
    let t0 = now () in
    let m0 = Metrics.snapshot () in
    let idx =
      Tracer.span "setup.build" (fun () -> Ifmh.build ~scheme:w.Workloads.scheme table keypair)
    in
    build_s.(r) <- now () -. t0;
    if r = 0 then build_counts := Some (Metrics.diff (Metrics.snapshot ()) m0);
    Store.close (Store.publish ~dir:store_dir idx);
    let started = Server_process.start ~dir:store_dir ~log in
    server := Some started;
    setup_s.(r) <- started.Server_process.ready_at -. t0;
    idx
  in
  let index = step "setup" (fun () -> List.hd (List.rev (List.init reps setup))) in
  let srv = ref (Option.get !server) in
  (* the structure phases one by one, after the set-ups so that they run
     as warm as the builds they are subtracted from *)
  let phases =
    if args.trace then Some (step "build_phases" (fun () -> Layers.build_phases table)) else None
  in
  let port () = !srv.Server_process.port in

  let ctx =
    let verify = Signer.verifier inp.Workloads.keypair.Signer.public in
    Client.make_ctx ~template:(Table.template table) ~domain:(Table.domain table)
      ~verify_signature:(fun d s -> Tracer.span "crypto.sig_verify" (fun () -> verify d s))
  in
  let reqs = Array.map2 (fun q p -> (q, p)) inp.Workloads.queries inp.Workloads.payloads in
  let nreq = Array.length reqs in
  let sequential ?(ctx = ctx) rs =
    attempted := !attempted + Array.length rs;
    Load.sequential ~port:(port ()) ~ctx ~tally rs
  in

  (* every republish ack must carry the next epoch *)
  let epoch = ref 0 in
  let owner_s = Array.make rounds Float.nan and repub_s = Array.make rounds Float.nan in
  let acked j = function
    | Ok (e, dt) when e = j + 1 ->
      repub_s.(j) <- dt;
      epoch := e
    | Ok _ -> Load.fail tally "republish.wrong_epoch"
    | Error _ -> Load.fail tally "republish.unacked"
  in
  attempted := !attempted + rounds;

  (* warm-up from the far end of the request stream: the server's first
     requests pay for lazy set-up no user sees twice *)
  let warmup = Array.sub reqs (nreq - 64) 64 in
  step "warmup" (fun () -> sequential warmup);

  (* The rounds. Round j: the owner's change j (timed, nothing else
     running), then reads: an open loop over the next slice of the
     request stream, then closed-loop capacity. On a hot set the
     capacity phase cycles over the round's slice, so its requests recur
     as the hot set's do; a uniform stream goes on through the stream,
     never repeating a request. A read workload republishes change j
     before its reads and warms the new epoch (a hot set with the
     slice's distinct requests, as a steady stream of them would have; a
     uniform stream with the far-end warm-up); write-mix republishes it
     halfway through the open loop, whose larger share keeps the reads
     that queue behind the swap well under half of them. *)
  let round_s = float_of_int args.seconds /. float_of_int rounds in
  let open_s = w.Workloads.open_share *. round_s in
  let cap_s = round_s -. open_s in
  let per_round = max 1 (int_of_float (w.Workloads.rate *. open_s)) in
  let n_open = rounds * per_round in
  let conns = max 1 (min 2 nproc) in
  let latency_s = Array.make n_open Float.nan and late_s = Array.make n_open 0. in
  let reply_bytes = Array.make n_open 0 and traced_req = Array.make n_open false in
  let rps = Array.make rounds Float.nan in
  let cap_n = ref 0 and next_cap = ref n_open in
  (* what the engine served in the timed reads, from its own counters *)
  let cache_hits = ref 0 and cache_misses = ref 0 and served = ref 0 and server_cpu_s = ref 0. in
  let last_stats = ref [] in
  (* the server's resident set after each round's reads: it grows with
     every epoch, and its peak at the end of a run moves by a fifth with
     when the server's last major collection ran, its median by much less *)
  let rss_rounds = Array.make rounds Float.nan in
  let open_hash_ops = ref 0 in
  (* every request the engine answered, in order, for the traced replay *)
  let sent = ref [ Array.map snd warmup ] in
  let deltas = ref [] in
  let prev = ref index in
  for j = 0 to rounds - 1 do
    let changes = inp.Workloads.changes.(j) in
    Gc.compact ();
    let next =
      step "owner_update" (fun () ->
          let t0 = now () in
          let next = Tracer.span "owner.apply" (fun () -> Ifmh.apply keypair changes !prev) in
          owner_s.(j) <- now () -. t0;
          next)
    in
    prev := next;
    let delta = Ifmh.delta ~changes next in
    deltas := delta :: !deltas;
    let payload = republish_payload delta in
    let first = j * per_round in
    let slice = Array.sub reqs first per_round in
    if not w.Workloads.republish_during_reads then begin
      step "republish" (fun () -> acked j (Load.republish ~port:(port ()) payload));
      let warm = match w.Workloads.popularity with Workloads.Hot _ -> distinct slice | Uniform -> warmup in
      sent := Array.map snd warm :: !sent;
      step "warmup" (fun () -> sequential warm)
    end;
    let stats0 = Load.stats ~port:(port ()) and cpu0 = Server_process.cpu_s !srv in
    let m0 = Metrics.snapshot () in
    let t_round = now () in
    let republisher =
      if w.Workloads.republish_during_reads then
        Some
          (Domain.spawn (fun () ->
               Load.sleep_until (t_round +. (open_s /. 2.));
               acked j (Load.republish ~port:(port ()) payload)))
      else None
    in
    let ol =
      step "open_loop" (fun () ->
          Load.open_loop ~port:(port ()) ~ctx ~tally ~rate:w.Workloads.rate ~conns ~first slice)
    in
    Option.iter Domain.join republisher;
    open_hash_ops := !open_hash_ops + (Metrics.diff (Metrics.snapshot ()) m0).Metrics.hash_ops;
    Array.blit ol.Load.latency_s 0 latency_s first per_round;
    Array.blit ol.Load.late_s 0 late_s first per_round;
    Array.blit ol.Load.reply_bytes 0 reply_bytes first per_round;
    Array.blit ol.Load.traced 0 traced_req first per_round;
    let cap_reqs, cap_first =
      match w.Workloads.popularity with Workloads.Hot _ -> (slice, 0) | Uniform -> (reqs, !next_cap)
    in
    let cap =
      step "capacity" (fun () ->
          Load.capacity ~port:(port ()) ~conns ~seconds:cap_s ~first:cap_first (Array.map snd cap_reqs))
    in
    let cpu1 = Server_process.cpu_s !srv and stats1 = Load.stats ~port:(port ()) in
    rps.(j) <- float_of_int cap.Load.count /. cap.Load.elapsed_s;
    cap_n := !cap_n + cap.Load.count;
    attempted := !attempted + per_round + cap.Load.count;
    next_cap := cap.Load.last;
    sent :=
      Array.init (cap.Load.last - cap_first) (fun i ->
          snd cap_reqs.((cap_first + i) mod Array.length cap_reqs))
      :: Array.map snd slice :: !sent;
    cache_hits := !cache_hits + delta_stats ~before:stats0 ~after:stats1 "cache_hits";
    cache_misses := !cache_misses + delta_stats ~before:stats0 ~after:stats1 "cache_misses";
    served := !served + delta_stats ~before:stats0 ~after:stats1 "req_query";
    server_cpu_s := !server_cpu_s +. (cpu1 -. cpu0);
    last_stats := stats1;
    rss_rounds.(j) <- Server_process.rss_mb !srv;
    step "verify_capacity" (fun () ->
        Load.verify_all ~domains:conns ~ctx ~tally ~query:(fun i -> fst cap_reqs.(i)) cap.Load.replies)
  done;

  let peak_rss_mb = Server_process.peak_rss_mb !srv in

  (* recovery, [reps] times: SIGKILL, restart over the same store, until
     the port file appears *)
  let recovery_s =
    step "recovery" @@ fun () ->
    Array.init reps (fun _ ->
        let t0 = now () in
        Server_process.kill !srv;
        server := None;
        srv := Server_process.start ~dir:store_dir ~log;
        server := Some !srv;
        !srv.Server_process.ready_at -. t0)
  in
  (* the restarted server answers at the last acked epoch *)
  sequential ~ctx:(Client.with_min_epoch ctx !epoch) (Array.sub reqs 0 32);
  stop_server ();

  (* ----------------------------- results ---------------------------- *)
  Out_channel.with_open_bin (Filename.concat work "latency.tsv") (fun oc ->
      output_string oc "request\tlatency_us\tlate_us\ttraced\n";
      Array.iteri
        (fun i l ->
          Printf.fprintf oc "%d\t%.1f\t%.1f\t%b\n" i (us l) (us late_s.(i)) traced_req.(i))
        latency_s);
  let pick traced = Array.mapi (fun i x -> if traced_req.(i) = traced then x else Float.nan) latency_s in
  let untraced = pick false and traced = pick true in
  let p50 = Stat.percentile 0.5 untraced in
  let n_ok = Array.length (Stat.sorted untraced) in
  let failed = Load.failures tally in
  let e2e =
    [
      m "setup_s" "s" reps (Stat.median setup_s);
      m "query_p50_us" "us" n_ok (us p50);
      m "query_rps" "1/s" !cap_n (Stat.median rps);
      m "reply_bytes_per_query" "B" n_open
        (Stat.mean (Array.map float_of_int reply_bytes));
      m "server_rss_mb" "MiB" rounds (Stat.median rss_rounds);
      m "republish_p50_ms" "ms" rounds (Stat.median repub_s *. 1e3);
      m "owner_update_s" "s" rounds (Stat.median owner_s);
    ]
  in
  let floats a = Json.List (Array.to_list (Array.map number a)) in
  let diagnostics =
    [
      ("query_p90_us", number (us (Stat.percentile 0.9 untraced)));
      ("query_p99_us", number (us (Stat.percentile 0.99 untraced)));
      ("query_max_us", number (us (Stat.max untraced)));
      ("failed_ratio", number (float_of_int failed /. float_of_int (max 1 !attempted)));
      ("late_ms_max", number (Stat.max late_s *. 1e3));
      ("cache_hit_ratio", number (Layers.ratio !cache_hits !cache_misses));
      ("open_loop_requests", Json.Int n_open);
      ("capacity_requests", Json.Int !cap_n);
      ("query_rps_rounds", floats rps);
      ("server_rss_mb_rounds", floats rss_rounds);
      ("server_peak_rss_mb", number peak_rss_mb);
      ("republishes_acked", Json.Int !epoch);
      ("setup_s", floats setup_s);
      ("recovery_s_median", number (Stat.median recovery_s));
      ("recovery_s", floats recovery_s);
      ("owner_update_s", floats owner_s);
      ("republish_s", floats repub_s);
    ]
  in
  let diagnostics () =
    Json.Obj (diagnostics @ [ ("step_s", Json.Obj (List.rev_map (fun (k, v) -> (k, number !v)) !steps)) ])
  in

  (* ------------------------- per-layer (traced) ---------------------- *)
  let per_layer =
    match phases with
    | None -> []
    | Some ph ->
      let replayed = Array.concat (List.rev !sent) in
      let deltas = Array.of_list (List.rev !deltas) in
      let up =
        step "replay_update" (fun () ->
            Layers.replay_update ~dir:(Filename.concat work "replay") index deltas)
      in
      let sv = step "replay_serve" (fun () -> Layers.replay_serve up.Layers.served replayed) in
      let spans = Tracer.spans () in
      Tracer.write (Filename.concat work "spans.tsv") spans;
      let selfs = Tracer.self_times spans in
      let self name = Array.of_list (List.filter_map (fun (s, d) -> if s.Tracer.name = name then Some d else None) selfs) in
      let dur name = Array.of_list (List.filter_map (fun (s, _) -> if s.Tracer.name = name then Some (s.Tracer.t1 -. s.Tracer.t0) else None) selfs) in
      let bc = Option.get !build_counts in
      let n_replay = Array.length replayed in
      let answered = Array.of_list (List.filter (fun x -> x > 0.) (Array.to_list sv.Layers.answer_us)) in
      let encoded = Array.of_list (List.filter (fun x -> x > 0.) (Array.to_list sv.Layers.encode_us)) in
      let request_path =
        Stat.median (Array.map us (dur "client.decode_reply"))
        +. Stat.median (Array.map us (dur "client.verify"))
        +. Stat.median sv.Layers.decode_us +. Stat.median sv.Layers.answer_us
        +. Stat.median sv.Layers.encode_us
      in
      let build_rest = Stat.median build_s -. ph.Layers.enumerate_s -. ph.Layers.itree_s -. ph.Layers.sweep_s in
      let cnt name v = m name "count" 1 (float_of_int v) in
      let ratio_m name v = m name "ratio" 1 v in
      [
        m "build.enumerate_s" "s" 1 ph.Layers.enumerate_s;
        m "build.itree_s" "s" 1 ph.Layers.itree_s;
        m "build.sweep_s" "s" 1 ph.Layers.sweep_s;
        m "build.rest_s" "s" reps build_rest;
        cnt "build.crossings" ph.Layers.crossings;
        cnt "build.leaves" ph.Layers.leaves;
        cnt "build.hash_ops" bc.Metrics.hash_ops;
        cnt "build.sign_ops" bc.Metrics.sign_ops;
        m "crypto.sign_us" "us" (Array.length (self "crypto.sign")) (us (Stat.median (self "crypto.sign")));
        m "crypto.sig_verify_us" "us" (Array.length (self "crypto.sig_verify")) (us (Stat.median (self "crypto.sig_verify")));
        m "serve.decode_request_us" "us" n_replay (Stat.median sv.Layers.decode_us);
        m "serve.answer_us" "us" sv.Layers.answered (Stat.median answered);
        m "serve.encode_reply_us" "us" sv.Layers.answered (Stat.median encoded);
        m "serve.locate_sign_tests" "count" sv.Layers.answered
          (float_of_int sv.Layers.locate_sign_tests /. float_of_int (max 1 sv.Layers.answered));
        ratio_m "serve.frag_hit_ratio" (Layers.ratio sv.Layers.frag_hits sv.Layers.frag_misses);
        ratio_m "serve.answer_share" (Stat.mean sv.Layers.answer_us /. us p50);
        ratio_m "engine.cache_hit_ratio" (Layers.ratio !cache_hits !cache_misses);
        ratio_m "engine.frag_hits_post_republish_ratio"
          (Layers.ratio
             (count_of !last_stats "frag_hits_post_republish")
             (count_of !last_stats "frag_misses_post_republish"));
        m "engine.cpu_us_per_query" "us" !served (us !server_cpu_s /. float_of_int (max 1 !served));
        m "engine.residual_us" "us" n_ok (us p50 -. request_path);
        m "client.decode_reply_us" "us" n_ok (us (Stat.median (self "client.decode_reply")));
        m "client.verify_us" "us" n_ok (us (Stat.median (self "client.verify")));
        m "client.hash_ops_per_query" "count" n_open
          (float_of_int !open_hash_ops /. float_of_int (max 1 n_open));
        m "update.server_apply_s" "s" rounds (Stat.median up.Layers.apply_s);
        m "update.delta_bytes" "B" rounds (Stat.mean (Array.map float_of_int up.Layers.delta_bytes));
        ratio_m "update.memo_pair_hit_ratio" up.Layers.memo_pair_hit_ratio;
        ratio_m "update.memo_fmh_hit_ratio" up.Layers.memo_fmh_hit_ratio;
        m "store.append_ms" "ms" rounds (Stat.median up.Layers.append_ms);
        m "store.open_s" "s" 1 up.Layers.open_s;
        m "load.late_ms_max" "ms" n_open (Stat.max late_s *. 1e3);
        m "trace.overhead_us" "us" n_ok (us (Stat.percentile 0.5 traced -. p50));
      ]
  in
  let metric_json l =
    Json.Obj
      (List.map
         (fun x -> (x.name, Json.Obj [ ("value", number x.value); ("unit", Json.String x.unit_) ]))
         l)
  in
  let samples l = Json.Obj (List.map (fun x -> (x.name, Json.Int x.samples)) l) in
  let correct = failed = 0 in
  let record =
    Json.Obj
      [
        ("workload", Json.String w.Workloads.name);
        ("seed", Json.Int seed);
        ("seconds", Json.Int args.seconds);
        ("trace", Json.Bool args.trace);
        ( "provenance",
          Json.Obj
            [
              ("commit", Json.String (commit ()));
              ("nproc", Json.Int nproc);
              ("aqv_domains", Json.String aqv_domains);
              ("server_binary", Json.String Server_process.binary);
              ("server_md5", Json.String (Digest.to_hex (Digest.file Server_process.binary)));
              ("inputs_sha256", Json.String inp.Workloads.digest);
            ] );
        ("correct", Json.Bool correct);
        ("attempted", Json.Int !attempted);
        ("failed", Json.Int failed);
        ("failures", Json.Obj (List.map (fun (r, n) -> (r, Json.Int n)) (Load.reasons tally)));
        ("e2e", metric_json e2e);
        ("per_layer", metric_json per_layer);
        ("samples", samples (e2e @ per_layer));
        ("diagnostics", diagnostics ());
      ]
  in
  print_endline (Json.to_string record);
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.Int !attempted);
            ("failed", Json.Int failed);
            ("metrics", metric_json (if args.trace then per_layer else e2e));
          ]));
  correct

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "compare" :: rest -> exit (Compare.compare rest)
  | "summary" :: rest -> exit (Compare.summary rest)
  | argv -> (
    let args = parse_args argv in
    match run args with
    | correct -> exit (if correct then 0 else 1)
    | exception e ->
      Printf.eprintf "bench: run failed: %s\n" (Printexc.to_string e);
      exit 1)
