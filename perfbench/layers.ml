(* Per-layer measurements for the traced run. Server-side layers cannot
   be traced inside the separate server process, so they are measured
   by replaying the same request and delta bytes in-process against the
   same index, timing each call into the layer's public function. *)

module Wire = Aqv_util.Wire
module Metrics = Aqv_util.Metrics
module Table = Aqv_db.Table
module Store = Aqv_store.Store
open Aqv

let ratio a b = if a + b = 0 then 0. else float_of_int a /. float_of_int (a + b)

(* ------------------------------- build ------------------------------ *)

type build = {
  enumerate_s : float;
  itree_s : float;
  sweep_s : float;
  crossings : int;
  leaves : int;
}

(* The three structure phases of [Ifmh.build], called one by one the way
   it calls them; the rest of a build (record digests, hash propagation,
   signing) is the build's time minus these. *)
let build_phases table =
  let pool = Aqv_par.Pool.default () in
  let dom = Table.domain table and fns = Table.functions table in
  let time name f =
    let t0 = Unix.gettimeofday () in
    let v = Tracer.span name f in
    (v, Unix.gettimeofday () -. t0)
  in
  let crossings, enumerate_s =
    time "build.enumerate" (fun () -> Crossings.enumerate ~pool dom fns)
  in
  let itree, itree_s = time "build.itree" (fun () -> Itree.build ~crossings dom fns) in
  let _, sweep_s = time "build.sweep" (fun () -> Sorting.build ~pool ~crossings table itree) in
  { enumerate_s; itree_s; sweep_s; crossings = Crossings.count crossings; leaves = Itree.leaf_count itree }

(* ------------------------------- serve ------------------------------ *)

type serve = {
  decode_us : float array;  (** every request *)
  answer_us : float array;  (** every request; 0 where the response cache hit *)
  encode_us : float array;  (** likewise *)
  answered : int;
  locate_sign_tests : int;
  frag_hits : int;
  frag_misses : int;
}

(* The engine's request path for a query: decode, look up the response
   cache (keyed by epoch and request bytes, the engine's default
   capacity), on a miss answer and encode. *)
let replay_serve index payloads =
  let cache = Aqv_serve.Cache.create ~capacity:Aqv_serve.Engine.default_config.cache_capacity in
  let index = Ifmh.drop_fragment_cache index in
  let n = Array.length payloads in
  let decode_us = Array.make n 0. and answer_us = Array.make n 0. and encode_us = Array.make n 0. in
  let answered = ref 0 in
  let m0 = Metrics.snapshot () in
  let timed f =
    let t0 = Unix.gettimeofday () in
    let v = f () in
    (v, (Unix.gettimeofday () -. t0) *. 1e6)
  in
  Array.iteri
    (fun i payload ->
      Tracer.span ~req:i "serve.request" (fun () ->
          let request, d =
            timed (fun () ->
                Tracer.span "serve.decode_request" (fun () ->
                    Protocol.decode_request (Wire.reader payload)))
          in
          decode_us.(i) <- d;
          let key = string_of_int (Ifmh.epoch index) ^ ":" ^ payload in
          match Aqv_serve.Cache.find cache key with
          | Some _ -> ()
          | None ->
            incr answered;
            let reply, a =
              timed (fun () -> Tracer.span "serve.answer" (fun () -> Protocol.handle index request))
            in
            let bytes, e =
              timed (fun () ->
                  Tracer.span "serve.encode_reply" (fun () ->
                      let w = Wire.writer () in
                      Protocol.encode_reply w reply;
                      Wire.contents w))
            in
            answer_us.(i) <- a;
            encode_us.(i) <- e;
            Aqv_serve.Cache.add cache key bytes))
    payloads;
  let m = Metrics.diff (Metrics.snapshot ()) m0 in
  {
    decode_us;
    answer_us;
    encode_us;
    answered = !answered;
    locate_sign_tests = m.Metrics.locate_sign_tests;
    frag_hits = m.Metrics.frag_hits;
    frag_misses = m.Metrics.frag_misses;
  }

(* ------------------------------ update ------------------------------ *)

type update = {
  served : Ifmh.t;  (** the index after the last delta: what the server serves *)
  apply_s : float array;  (** [Ifmh.apply_delta], per delta *)
  delta_bytes : int array;
  memo_pair_hit_ratio : float;
  memo_fmh_hit_ratio : float;
  append_ms : float array;  (** [Store.append], per delta *)
  open_s : float;  (** [Store.open_dir] over the snapshot plus every frame *)
}

(* The server's republish and recovery paths, in-process: replay each
   delta on the index it applies to, log each to a store of its own,
   then recover that store. *)
let replay_update ~dir base deltas =
  let k = Array.length deltas in
  let apply_s = Array.make k 0. and append_ms = Array.make k 0. in
  let delta_bytes =
    Array.map
      (fun d ->
        let w = Wire.writer () in
        Ifmh.encode_delta w d;
        Wire.size w)
      deltas
  in
  let m0 = Metrics.snapshot () in
  let bases = Array.make (k + 1) base in
  for j = 0 to k - 1 do
    let t0 = Unix.gettimeofday () in
    bases.(j + 1) <-
      Tracer.span "update.apply_delta" (fun () -> Ifmh.apply_delta deltas.(j) bases.(j));
    apply_s.(j) <- Unix.gettimeofday () -. t0
  done;
  let m = Metrics.diff (Metrics.snapshot ()) m0 in
  let store = Store.publish ~dir base in
  Array.iteri
    (fun j d ->
      let t0 = Unix.gettimeofday () in
      Tracer.span "store.append" (fun () -> Store.append store ~base:bases.(j) d);
      append_ms.(j) <- (Unix.gettimeofday () -. t0) *. 1e3)
    deltas;
  Store.close store;
  let t0 = Unix.gettimeofday () in
  (match Tracer.span "store.open_dir" (fun () -> Store.open_dir dir) with
  | Ok (s, recovered, _) ->
    Store.close s;
    if Ifmh.epoch recovered <> Ifmh.epoch bases.(k) then failwith "store replay: wrong epoch"
  | Error e -> failwith ("store replay: " ^ Aqv_store.Error.to_string e));
  let open_s = Unix.gettimeofday () -. t0 in
  {
    served = bases.(k);
    apply_s;
    delta_bytes;
    memo_pair_hit_ratio = ratio m.Metrics.memo_pair_hits m.Metrics.memo_pair_misses;
    memo_fmh_hit_ratio = ratio m.Metrics.memo_fmh_hits m.Metrics.memo_fmh_misses;
    append_ms;
    open_s;
  }
