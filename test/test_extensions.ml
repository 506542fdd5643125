(* Tests for features beyond the paper's core construction: verifiable
   rank queries, the lazy (Recompute) FMH storage policy, the compact
   VO codec, full response serialization, I-tree depth statistics, and
   the plain-vs-Montgomery modexp equivalence. *)

module Q = Aqv_num.Rational
module Z = Aqv_bigint.Bigint
module Prng = Aqv_util.Prng
module Wire = Aqv_util.Wire
module Record = Aqv_db.Record
module Table = Aqv_db.Table
module Workload = Aqv_db.Workload
module Signer = Aqv_crypto.Signer
open Aqv

let check = Alcotest.check

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

let keypair = lazy (Signer.generate ~bits:512 Signer.Rsa (Prng.create 500L))
let table = lazy (Workload.lines_1d ~n:30 (Prng.create 501L))
let index_one = lazy (Ifmh.build ~scheme:Ifmh.One_signature (Lazy.force table) (Lazy.force keypair))
let index_multi = lazy (Ifmh.build ~scheme:Ifmh.Multi_signature (Lazy.force table) (Lazy.force keypair))

let ctx () =
  let t = Lazy.force table in
  Client.make_ctx ~template:(Table.template t) ~domain:(Table.domain t)
    ~verify_signature:(Lazy.force keypair).Signer.verify

(* ----------------------------- rank query --------------------------- *)

let reference_rank table x record_id =
  let sorted = Workload.scores_at table x in
  let pos = Option.get (Table.position_by_id table record_id) in
  let rec go i = if fst sorted.(i) = pos then i else go (i + 1) in
  go 0

let test_rank_all_records index () =
  let t = Lazy.force table in
  let rng = Prng.create 502L in
  let c = ctx () in
  for _ = 1 to 5 do
    let x = Workload.weight_point t rng in
    Array.iter
      (fun r ->
        let id = Record.id r in
        match Server.rank index ~x ~record_id:id with
        | None -> Alcotest.failf "record %d not found" id
        | Some resp ->
          (match Client.verify_rank c ~x ~record_id:id resp with
          | Ok rank ->
            check Alcotest.int
              (Printf.sprintf "rank of %d" id)
              (reference_rank t x id) rank
          | Error e -> Alcotest.failf "rank rejected: %s" (Client.rejection_to_string e)))
      (Table.records t)
  done

let test_rank_one () = test_rank_all_records (Lazy.force index_one) ()
let test_rank_multi () = test_rank_all_records (Lazy.force index_multi) ()

let test_rank_missing_id () =
  let t = Lazy.force table in
  let x = Workload.weight_point t (Prng.create 503L) in
  check Alcotest.bool "missing id" true (Server.rank (Lazy.force index_one) ~x ~record_id:9999 = None)

let test_rank_tamper_rejected () =
  let t = Lazy.force table in
  let x = Workload.weight_point t (Prng.create 504L) in
  let c = ctx () in
  let resp = Option.get (Server.rank (Lazy.force index_one) ~x ~record_id:3) in
  (* claim the rank proof belongs to a different record id *)
  (match Client.verify_rank c ~x ~record_id:4 resp with
  | Ok _ -> Alcotest.fail "wrong id accepted"
  | Error _ -> ());
  (* shift the claimed position *)
  let shifted =
    { resp with Server.vo = { resp.Server.vo with Vo.window_lo = resp.Server.vo.Vo.window_lo + 1 } }
  in
  match Client.verify_rank c ~x ~record_id:3 shifted with
  | Ok _ -> Alcotest.fail "shifted rank accepted"
  | Error _ -> ()

(* --------------------------- lazy storage --------------------------- *)

let test_lazy_storage_equivalent () =
  let t = Lazy.force table in
  let kp = Lazy.force keypair in
  let snap = Ifmh.build ~scheme:Ifmh.One_signature t kp in
  let lazy_ = Ifmh.build ~fmh_storage:Sorting.Recompute ~scheme:Ifmh.One_signature t kp in
  check Alcotest.bool "storage flag" true (Sorting.storage (Ifmh.sorting lazy_) = Sorting.Recompute);
  (* identical commitments *)
  for id = 0 to Itree.leaf_count (Ifmh.itree snap) - 1 do
    check Alcotest.string "same fmh root"
      (Sorting.fmh_root (Ifmh.sorting snap) id)
      (Sorting.fmh_root (Ifmh.sorting lazy_) id)
  done;
  (* identical signatures (same root, same deterministic signer input) *)
  check Alcotest.string "same root signature" (Ifmh.root_signature snap)
    (Ifmh.root_signature lazy_);
  (* identical responses, and they verify *)
  let rng = Prng.create 505L in
  let c = ctx () in
  for _ = 1 to 20 do
    let x = Workload.weight_point t rng in
    let q = Query.top_k ~x ~k:4 in
    let r1 = Server.answer snap q and r2 = Server.answer lazy_ q in
    let w1 = Wire.writer () and w2 = Wire.writer () in
    Server.encode_response w1 r1;
    Server.encode_response w2 r2;
    check Alcotest.string "identical responses" (Wire.contents w1) (Wire.contents w2);
    check Alcotest.bool "verifies" true (Client.accepts c q r2)
  done

let test_lazy_storage_multi_sig () =
  let t = Workload.lines_1d ~n:12 (Prng.create 506L) in
  let kp = Lazy.force keypair in
  let lazy_ = Ifmh.build ~fmh_storage:Sorting.Recompute ~scheme:Ifmh.Multi_signature t kp in
  let c =
    Client.make_ctx ~template:(Table.template t) ~domain:(Table.domain t)
      ~verify_signature:kp.Signer.verify
  in
  let rng = Prng.create 507L in
  for _ = 1 to 10 do
    let x = Workload.weight_point t rng in
    let l, u = Workload.range_for_result_size t ~x ~size:3 in
    let q = Query.range ~x ~l ~u in
    check Alcotest.bool "verifies" true (Client.accepts c q (Server.answer lazy_ q))
  done

let test_lazy_storage_2d () =
  let t = Workload.scored ~n:6 ~dims:2 (Prng.create 508L) in
  let kp = Lazy.force keypair in
  let snap = Ifmh.build ~scheme:Ifmh.One_signature t kp in
  let lazy_ = Ifmh.build ~fmh_storage:Sorting.Recompute ~scheme:Ifmh.One_signature t kp in
  check Alcotest.string "same root signature" (Ifmh.root_signature snap)
    (Ifmh.root_signature lazy_)

(* --------------------------- VO codecs ------------------------------ *)

let roundtrip_checks index =
  let t = Lazy.force table in
  let rng = Prng.create 509L in
  for _ = 1 to 20 do
    let x = Workload.weight_point t rng in
    let q = Query.top_k ~x ~k:(Prng.int_in rng 1 10) in
    let resp = Server.answer index q in
    let vo = resp.Server.vo in
    (* plain codec *)
    let w = Wire.writer () in
    Vo.encode w vo;
    let vo' = Vo.decode (Wire.reader (Wire.contents w)) in
    let w2 = Wire.writer () in
    Vo.encode w2 vo';
    check Alcotest.string "plain roundtrip" (Wire.contents w) (Wire.contents w2);
    (* compact codec *)
    let wc = Wire.writer () in
    Vo.encode_compact wc vo;
    let voc = Vo.decode_compact (Wire.reader (Wire.contents wc)) in
    let w3 = Wire.writer () in
    Vo.encode w3 voc;
    check Alcotest.string "compact roundtrip preserves VO" (Wire.contents w) (Wire.contents w3);
    (* a decoded VO still verifies *)
    let c = ctx () in
    check Alcotest.bool "decoded verifies" true
      (Client.accepts c q { resp with Server.vo = voc })
  done

let test_vo_roundtrip_one () = roundtrip_checks (Lazy.force index_one)
let test_vo_roundtrip_multi () = roundtrip_checks (Lazy.force index_multi)

let test_compact_smaller_for_one_sig () =
  (* with a deep path the compact form should not be larger *)
  let t = Workload.lines_1d ~n:60 (Prng.create 510L) in
  let kp = Lazy.force keypair in
  let index = Ifmh.build ~scheme:Ifmh.One_signature t kp in
  let rng = Prng.create 511L in
  let worse = ref 0 in
  for _ = 1 to 20 do
    let x = Workload.weight_point t rng in
    let resp = Server.answer index (Query.top_k ~x ~k:3) in
    let plain = Vo.size_bytes resp.Server.vo in
    let compact = Vo.size_bytes_compact resp.Server.vo in
    if compact > plain then incr worse
  done;
  check Alcotest.int "compact never larger" 0 !worse

let test_response_roundtrip () =
  let t = Lazy.force table in
  let rng = Prng.create 512L in
  let index = Lazy.force index_one in
  for _ = 1 to 10 do
    let x = Workload.weight_point t rng in
    let q = Query.knn ~x ~k:3 ~y:(Q.of_int 500) in
    let resp = Server.answer index q in
    let w = Wire.writer () in
    Server.encode_response w resp;
    let resp' = Server.decode_response (Wire.reader (Wire.contents w)) in
    let w2 = Wire.writer () in
    Server.encode_response w2 resp';
    check Alcotest.string "response roundtrip" (Wire.contents w) (Wire.contents w2);
    check Alcotest.bool "decoded verifies" true (Client.accepts (ctx ()) q resp')
  done

let test_decode_garbage () =
  Alcotest.check_raises "garbage rejected" (Failure "Wire: truncated") (fun () ->
      ignore (Server.decode_response (Wire.reader "\xff\xfe\x01")))

(* --------------------------- itree depth ---------------------------- *)

let test_depth_statistics () =
  let t = Workload.lines_1d ~n:60 (Prng.create 513L) in
  let shuffled = Itree.build (Table.domain t) (Table.functions t) in
  let sorted = Itree.build ~order:`Lexicographic (Table.domain t) (Table.functions t) in
  (* same decomposition either way *)
  check Alcotest.int "same leaf count" (Itree.leaf_count shuffled) (Itree.leaf_count sorted);
  let leaves = Itree.leaf_count shuffled in
  let log2 = int_of_float (Float.log2 (float_of_int leaves)) in
  check Alcotest.bool "max depth >= log2(leaves)" true (Itree.max_depth shuffled >= log2);
  check Alcotest.bool "avg <= max" true
    (Itree.average_leaf_depth shuffled <= float_of_int (Itree.max_depth shuffled));
  (* randomized insertion should not be catastrophically deep *)
  check Alcotest.bool "shuffled reasonably balanced" true
    (Itree.max_depth shuffled <= 6 * (log2 + 1))

let test_depth_same_answers () =
  let t = Workload.lines_1d ~n:25 (Prng.create 514L) in
  let kp = Lazy.force keypair in
  let a = Ifmh.build ~scheme:Ifmh.Multi_signature t kp in
  (* different seed -> different internal shape, same subdomains *)
  let b = Ifmh.build ~seed:999L ~scheme:Ifmh.Multi_signature t kp in
  let rng = Prng.create 515L in
  for _ = 1 to 20 do
    let x = Workload.weight_point t rng in
    let q = Query.top_k ~x ~k:5 in
    let ra = Server.answer a q and rb = Server.answer b q in
    check Alcotest.(list int) "same result"
      (List.map Record.id ra.Server.result)
      (List.map Record.id rb.Server.result)
  done

(* ---------------------- modexp implementations ---------------------- *)

let mod_pow_agree =
  qtest ~count:200 "mod_pow = mod_pow_plain"
    QCheck.(triple (int_bound 1_000_000) (int_bound 10_000) (int_bound 1_000_000))
    (fun (b, e, m) ->
      QCheck.assume (m >= 2);
      let b = Z.of_int b and e = Z.of_int e and m = Z.of_int m in
      Z.equal (Z.mod_pow ~base:b ~exp:e ~modulus:m) (Z.mod_pow_plain ~base:b ~exp:e ~modulus:m))

let mod_pow_agree_big =
  qtest ~count:30 "mod_pow = mod_pow_plain (big)"
    QCheck.(pair (int_bound 1000) (int_bound 1000))
    (fun (s1, s2) ->
      let rng = Prng.create (Int64.of_int ((s1 * 7919) + s2)) in
      let b = Z.random_bits rng 256 in
      let e = Z.random_bits rng 64 in
      let m = Z.succ (Z.random_bits rng 200) in
      QCheck.assume (Z.compare m Z.two >= 0);
      Z.equal (Z.mod_pow ~base:b ~exp:e ~modulus:m) (Z.mod_pow_plain ~base:b ~exp:e ~modulus:m))


(* ------------------------------ epochs ------------------------------ *)

let test_epoch_accept_and_reject () =
  let t = Workload.lines_1d ~n:10 (Prng.create 520L) in
  let kp = Lazy.force keypair in
  let index = Ifmh.build ~epoch:3 ~scheme:Ifmh.One_signature t kp in
  check Alcotest.int "epoch stored" 3 (Ifmh.epoch index);
  let base =
    Client.make_ctx ~template:(Table.template t) ~domain:(Table.domain t)
      ~verify_signature:kp.Signer.verify
  in
  let x = Workload.weight_point t (Prng.create 521L) in
  let q = Query.top_k ~x ~k:3 in
  let resp = Server.answer index q in
  check Alcotest.int "epoch in VO" 3 resp.Server.vo.Vo.epoch;
  check Alcotest.bool "default ctx accepts" true (Client.accepts base q resp);
  check Alcotest.bool "min_epoch 3 accepts" true
    (Client.accepts (Client.with_min_epoch base 3) q resp);
  (match Client.verify (Client.with_min_epoch base 4) q resp with
  | Error Client.Stale_epoch -> ()
  | Ok () -> Alcotest.fail "stale epoch accepted"
  | Error r -> Alcotest.failf "wrong rejection: %s" (Client.rejection_to_string r));
  (* claiming a newer epoch without a matching signature must fail *)
  let forged = { resp with Server.vo = { resp.Server.vo with Vo.epoch = 4 } } in
  match Client.verify (Client.with_min_epoch base 4) q forged with
  | Error Client.Bad_signature -> ()
  | Ok () -> Alcotest.fail "forged epoch accepted"
  | Error r -> Alcotest.failf "wrong rejection: %s" (Client.rejection_to_string r)

let test_epoch_multi_sig () =
  let t = Workload.lines_1d ~n:8 (Prng.create 522L) in
  let kp = Lazy.force keypair in
  let old_index = Ifmh.build ~epoch:1 ~scheme:Ifmh.Multi_signature t kp in
  let base =
    Client.make_ctx ~template:(Table.template t) ~domain:(Table.domain t)
      ~verify_signature:kp.Signer.verify
  in
  let x = Workload.weight_point t (Prng.create 523L) in
  let q = Query.top_k ~x ~k:2 in
  let stale = Server.answer old_index q in
  (* a client that saw epoch 2 rejects the replayed epoch-1 response *)
  match Client.verify (Client.with_min_epoch base 2) q stale with
  | Error Client.Stale_epoch -> ()
  | Ok () -> Alcotest.fail "stale replay accepted"
  | Error r -> Alcotest.failf "wrong rejection: %s" (Client.rejection_to_string r)

(* ------------------------------ batch ------------------------------- *)

let test_batch_verifies () =
  let t = Lazy.force table in
  let rng = Prng.create 524L in
  List.iter
    (fun index ->
      let c = ctx () in
      for _ = 1 to 10 do
        let x = Workload.weight_point t rng in
        let l, u = Workload.range_for_result_size t ~x ~size:4 in
        let queries =
          [
            Query.top_k ~x ~k:3;
            Query.range ~x ~l ~u;
            Query.knn ~x ~k:2 ~y:(Q.of_int 400);
          ]
        in
        let resp = Batch.answer index ~x queries in
        (match Batch.verify c ~x queries resp with
        | Ok () -> ()
        | Error r -> Alcotest.failf "batch rejected: %s" (Semantics.rejection_to_string r));
        (* expansion into standalone responses also verifies *)
        List.iter2
          (fun q sr -> check Alcotest.bool "expanded verifies" true (Client.accepts c q sr))
          queries (Batch.to_responses resp)
      done)
    [ Lazy.force index_one; Lazy.force index_multi ]

let test_batch_saves_bytes () =
  let t = Lazy.force table in
  let x = Workload.weight_point t (Prng.create 525L) in
  let queries = List.init 5 (fun k -> Query.top_k ~x ~k:(k + 1)) in
  let index = Lazy.force index_one in
  let resp = Batch.answer index ~x queries in
  let batched = Batch.size_bytes resp in
  let separate =
    List.fold_left
      (fun acc sr -> acc + Vo.size_bytes sr.Server.vo)
      0 (Batch.to_responses resp)
  in
  check Alcotest.bool "batch smaller than separate VOs" true (batched < separate)

let test_batch_tamper () =
  let t = Lazy.force table in
  let x = Workload.weight_point t (Prng.create 526L) in
  let queries = [ Query.top_k ~x ~k:2; Query.top_k ~x ~k:4 ] in
  let index = Lazy.force index_one in
  let resp = Batch.answer index ~x queries in
  let c = ctx () in
  (* drop an item *)
  (match Batch.verify c ~x queries { resp with Batch.items = [ List.hd resp.Batch.items ] } with
  | Ok () -> Alcotest.fail "dropped item accepted"
  | Error _ -> ());
  (* swap items against the query order *)
  (match
     Batch.verify c ~x queries { resp with Batch.items = List.rev resp.Batch.items }
   with
  | Ok () -> Alcotest.fail "swapped items accepted"
  | Error _ -> ());
  (* drop a record from an item *)
  let cripple = function
    | { Batch.result = _ :: rest; _ } as item -> { item with Batch.result = rest }
    | item -> item
  in
  match Batch.verify c ~x queries { resp with Batch.items = List.map cripple resp.Batch.items } with
  | Ok () -> Alcotest.fail "crippled item accepted"
  | Error _ -> ()

let test_batch_wrong_x () =
  let t = Lazy.force table in
  let x = Workload.weight_point t (Prng.create 527L) in
  let x2 = Workload.weight_point t (Prng.create 528L) in
  Alcotest.check_raises "mismatched input"
    (Invalid_argument "Batch.answer: mismatched query input") (fun () ->
      ignore (Batch.answer (Lazy.force index_one) ~x [ Query.top_k ~x:x2 ~k:1 ]))

(* ------------------------------ count ------------------------------- *)

let reference_count t x l u =
  Array.fold_left
    (fun acc f ->
      let s = Aqv_num.Linfun.eval f x in
      if Q.compare l s <= 0 && Q.compare s u <= 0 then acc + 1 else acc)
    0 (Table.functions t)

let test_count_matches_reference () =
  let t = Lazy.force table in
  let rng = Prng.create 529L in
  List.iter
    (fun index ->
      let c = ctx () in
      for _ = 1 to 30 do
        let x = Workload.weight_point t rng in
        let scores = Workload.scores_at t x in
        let pick () = snd scores.(Prng.int rng (Array.length scores)) in
        let a = pick () and b = pick () in
        let l = Q.min a b and u = Q.max a b in
        (* randomly nudge the bounds off exact scores *)
        let l = if Prng.bool rng then Q.sub l (Q.of_ints 1 3) else l in
        let u = if Prng.bool rng then Q.add u (Q.of_ints 1 3) else u in
        let resp = Count.answer index ~x ~l ~u in
        match Count.verify c ~x ~l ~u resp with
        | Ok count ->
          check Alcotest.int "count" (reference_count t x l u) count
        | Error r -> Alcotest.failf "count rejected: %s" (Semantics.rejection_to_string r)
      done)
    [ Lazy.force index_one; Lazy.force index_multi ]

let test_count_empty_and_full () =
  let t = Lazy.force table in
  let x = Workload.weight_point t (Prng.create 530L) in
  let index = Lazy.force index_one in
  let c = ctx () in
  (* empty: a gap below every score *)
  let scores = Workload.scores_at t x in
  let lo_score = snd scores.(0) in
  let l = Q.sub lo_score (Q.of_int 10) and u = Q.sub lo_score (Q.of_int 5) in
  (match Count.verify c ~x ~l ~u (Count.answer index ~x ~l ~u) with
  | Ok 0 -> ()
  | Ok k -> Alcotest.failf "expected 0, got %d" k
  | Error r -> Alcotest.failf "rejected: %s" (Semantics.rejection_to_string r));
  (* full range *)
  let top = snd scores.(Array.length scores - 1) in
  let l = Q.sub lo_score Q.one and u = Q.add top Q.one in
  match Count.verify c ~x ~l ~u (Count.answer index ~x ~l ~u) with
  | Ok k -> check Alcotest.int "all records" (Table.size t) k
  | Error r -> Alcotest.failf "rejected: %s" (Semantics.rejection_to_string r)

let test_count_tamper () =
  let t = Lazy.force table in
  let x = Workload.weight_point t (Prng.create 531L) in
  let index = Lazy.force index_one in
  let c = ctx () in
  let l, u =
    let s = Workload.scores_at t x in
    (snd s.(5), snd s.(20))
  in
  let resp = Count.answer index ~x ~l ~u in
  (* claiming a different count by dropping the inner pair *)
  (match Count.verify c ~x ~l ~u { resp with Count.inner = None } with
  | Ok _ -> Alcotest.fail "inner-less count accepted"
  | Error _ -> ());
  (* swapping the outer anchors *)
  (match
     Count.verify c ~x ~l ~u { resp with Count.louter = resp.Count.router; router = resp.Count.louter }
   with
  | Ok _ -> Alcotest.fail "swapped anchors accepted"
  | Error _ -> ());
  (* verifying against a narrower range must fail (inner members leak out) *)
  match Count.verify c ~x ~l:(Q.add l Q.one) ~u:(Q.sub u Q.one) resp with
  | Ok k -> check Alcotest.int "only ok if counts agree" (reference_count t x (Q.add l Q.one) (Q.sub u Q.one)) k
  | Error _ -> ()

let test_count_vo_smaller_than_range_vo () =
  let t = Workload.lines_1d ~n:200 (Prng.create 532L) in
  let kp = Lazy.force keypair in
  let index = Ifmh.build ~scheme:Ifmh.One_signature t kp in
  let x = Workload.weight_point t (Prng.create 533L) in
  let l, u = Workload.range_for_result_size t ~x ~size:180 in
  let cresp = Count.answer index ~x ~l ~u in
  let rresp = Server.answer index (Query.range ~x ~l ~u) in
  let range_total = Vo.size_bytes rresp.Server.vo + Server.response_result_size rresp in
  check Alcotest.bool "count proof much smaller than shipping the records" true
    (Count.size_bytes cresp * 2 < range_total)


(* --------------------------- persistence ---------------------------- *)

let test_ifmh_save_load () =
  let t = Lazy.force table in
  let kp = Lazy.force keypair in
  List.iter
    (fun scheme ->
      let index = Ifmh.build ~epoch:2 ~scheme t kp in
      let w = Wire.writer () in
      Ifmh.save w index;
      let loaded = Ifmh.load (Wire.reader (Wire.contents w)) in
      check Alcotest.int "epoch survives" 2 (Ifmh.epoch loaded);
      (* identical answers, and they verify against the owner's key *)
      let c = ctx () in
      let rng = Prng.create 540L in
      for _ = 1 to 10 do
        let x = Workload.weight_point t rng in
        let q = Query.top_k ~x ~k:4 in
        let r1 = Server.answer index q and r2 = Server.answer loaded q in
        let w1 = Wire.writer () and w2 = Wire.writer () in
        Server.encode_response w1 r1;
        Server.encode_response w2 r2;
        check Alcotest.string "identical responses" (Wire.contents w1) (Wire.contents w2);
        check Alcotest.bool "loaded verifies" true (Client.accepts c q r2)
      done)
    [ Ifmh.One_signature; Ifmh.Multi_signature ]

let test_ifmh_load_garbage () =
  match Ifmh.load (Wire.reader "\x07nonsense") with
  | exception Failure _ -> ()
  | exception _ -> ()
  | _ -> Alcotest.fail "garbage index loaded"

(* ------------------------------ codecs ------------------------------ *)

let test_query_codec () =
  let x = [| Q.of_ints 3 7; Q.of_ints 1 2 |] in
  List.iter
    (fun q ->
      let w = Wire.writer () in
      Query.encode w q;
      let q' = Query.decode (Wire.reader (Wire.contents w)) in
      let w2 = Wire.writer () in
      Query.encode w2 q';
      check Alcotest.string "query roundtrip" (Wire.contents w) (Wire.contents w2))
    [
      Query.top_k ~x ~k:5;
      Query.range ~x ~l:(Q.of_ints (-1) 3) ~u:(Q.of_int 9);
      Query.knn ~x ~k:2 ~y:(Q.of_ints 22 7);
    ];
  (* invalid payloads rejected *)
  (match Query.decode (Wire.reader "\x09") with
  | exception Failure _ -> ()
  | exception _ -> ()
  | _ -> Alcotest.fail "bad query decoded")

let test_public_key_codec () =
  let rng = Prng.create 541L in
  List.iter
    (fun alg ->
      let kp = Signer.generate ~bits:512 alg rng in
      let w = Wire.writer () in
      Signer.encode_public w kp.Signer.public;
      let public = Signer.decode_public (Wire.reader (Wire.contents w)) in
      let d = Aqv_crypto.Sha256.digest "msg" in
      let s = kp.Signer.sign d in
      check Alcotest.bool
        (Signer.algorithm_name alg ^ " decoded key verifies")
        true
        (Signer.verifier public d s);
      check Alcotest.bool "rejects tampered digest" false
        (Signer.verifier public (Aqv_crypto.Sha256.digest "other") s))
    [ Signer.Rsa; Signer.Dsa ]

(* ----------------------------- protocol ----------------------------- *)

let test_protocol_roundtrips () =
  let t = Lazy.force table in
  let kp = Lazy.force keypair in
  let index = Lazy.force index_multi in
  let bundle = Protocol.bundle_of_index index kp.Signer.public in
  let w = Wire.writer () in
  Protocol.encode_bundle w bundle;
  let bundle' = Protocol.decode_bundle (Wire.reader (Wire.contents w)) in
  check Alcotest.int "bundle epoch" (Ifmh.epoch index) bundle'.Protocol.epoch;
  let ctx = Protocol.client_ctx bundle' in
  let x = Workload.weight_point t (Prng.create 542L) in
  let checks =
    [
      ( Protocol.Run_query (Query.top_k ~x ~k:3),
        fun reply ->
          match reply with
          | Protocol.Answer resp -> Client.accepts ctx (Query.top_k ~x ~k:3) resp
          | _ -> false );
      ( Protocol.Run_rank { x; record_id = 5 },
        fun reply ->
          match reply with
          | Protocol.Rank_answer (Some resp) ->
            Result.is_ok (Client.verify_rank ctx ~x ~record_id:5 resp)
          | _ -> false );
      ( Protocol.Run_rank { x; record_id = 9999 },
        fun reply -> reply = Protocol.Rank_answer None );
      ( Protocol.Run_count { x; l = Q.of_int 100; u = Q.of_int 700 },
        fun reply ->
          match reply with
          | Protocol.Count_answer resp ->
            Result.is_ok (Count.verify ctx ~x ~l:(Q.of_int 100) ~u:(Q.of_int 700) resp)
          | _ -> false );
      ( Protocol.Run_query (Query.top_k ~x:[| Q.of_int 5 |] ~k:1),
        fun reply -> match reply with Protocol.Refused _ -> true | _ -> false );
    ]
    (* engine-only requests: dispatch alone refuses them *)
    @ List.map
        (fun request ->
          (request, fun reply -> match reply with Protocol.Refused _ -> true | _ -> false))
        [
          Protocol.Get_stats;
          Protocol.Republish (Ifmh.delta ~changes:[] index);
          Protocol.Subscribe { from_epoch = Some 1 };
        ]
  in
  List.iter
    (fun (request, accept) ->
      (* request roundtrip *)
      let wr = Wire.writer () in
      Protocol.encode_request wr request;
      let request' = Protocol.decode_request (Wire.reader (Wire.contents wr)) in
      (* dispatch and reply roundtrip *)
      let reply = Protocol.handle index request' in
      let wp = Wire.writer () in
      Protocol.encode_reply wp reply;
      let reply' = Protocol.decode_reply (Wire.reader (Wire.contents wp)) in
      check Alcotest.bool "reply verifies after roundtrip" true (accept reply'))
    checks

let () =
  Alcotest.run "aqv_extensions"
    [
      ( "rank",
        [
          Alcotest.test_case "all records, one-sig" `Quick test_rank_one;
          Alcotest.test_case "all records, multi-sig" `Quick test_rank_multi;
          Alcotest.test_case "missing id" `Quick test_rank_missing_id;
          Alcotest.test_case "tamper rejected" `Quick test_rank_tamper_rejected;
        ] );
      ( "lazy-storage",
        [
          Alcotest.test_case "equivalent to snapshot" `Quick test_lazy_storage_equivalent;
          Alcotest.test_case "multi-sig" `Quick test_lazy_storage_multi_sig;
          Alcotest.test_case "2d" `Quick test_lazy_storage_2d;
        ] );
      ( "codecs",
        [
          Alcotest.test_case "vo roundtrips, one-sig" `Quick test_vo_roundtrip_one;
          Alcotest.test_case "vo roundtrips, multi-sig" `Quick test_vo_roundtrip_multi;
          Alcotest.test_case "compact never larger" `Quick test_compact_smaller_for_one_sig;
          Alcotest.test_case "response roundtrip" `Quick test_response_roundtrip;
          Alcotest.test_case "garbage rejected" `Quick test_decode_garbage;
        ] );
      ( "itree-depth",
        [
          Alcotest.test_case "depth statistics" `Quick test_depth_statistics;
          Alcotest.test_case "shape-independent answers" `Quick test_depth_same_answers;
        ] );
      ("modexp", [ mod_pow_agree; mod_pow_agree_big ]);
      ( "epochs",
        [
          Alcotest.test_case "accept and reject" `Quick test_epoch_accept_and_reject;
          Alcotest.test_case "multi-sig stale replay" `Quick test_epoch_multi_sig;
        ] );
      ( "batch",
        [
          Alcotest.test_case "verifies" `Quick test_batch_verifies;
          Alcotest.test_case "saves bytes" `Quick test_batch_saves_bytes;
          Alcotest.test_case "tamper rejected" `Quick test_batch_tamper;
          Alcotest.test_case "wrong x rejected" `Quick test_batch_wrong_x;
        ] );
      ( "count",
        [
          Alcotest.test_case "matches reference" `Quick test_count_matches_reference;
          Alcotest.test_case "empty and full" `Quick test_count_empty_and_full;
          Alcotest.test_case "tamper rejected" `Quick test_count_tamper;
          Alcotest.test_case "smaller than range VO" `Quick test_count_vo_smaller_than_range_vo;
        ] );
      ( "persistence",
        [
          Alcotest.test_case "save/load" `Quick test_ifmh_save_load;
          Alcotest.test_case "garbage rejected" `Quick test_ifmh_load_garbage;
        ] );
      ( "codecs-net",
        [
          Alcotest.test_case "query codec" `Quick test_query_codec;
          Alcotest.test_case "public key codec" `Quick test_public_key_codec;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "request/reply roundtrips" `Quick test_protocol_roundtrips;
        ] );
    ]
