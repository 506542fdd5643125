(* Tests for the aqv_util substrate: PRNG determinism and distribution
   sanity, hex round trips, wire-format round trips, metric counters. *)

open Aqv_util

let check = Alcotest.check
let qtest ?(count = 500) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

(* ------------------------------- Prng ------------------------------ *)

let test_prng_deterministic () =
  let a = Prng.create 42L and b = Prng.create 42L in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Prng.next_int64 a) (Prng.next_int64 b)
  done

let test_prng_seed_sensitivity () =
  let a = Prng.create 1L and b = Prng.create 2L in
  let xa = List.init 8 (fun _ -> Prng.next_int64 a) in
  let xb = List.init 8 (fun _ -> Prng.next_int64 b) in
  check Alcotest.bool "different streams" true (xa <> xb)

let test_prng_int_bounds () =
  let r = Prng.create 7L in
  for _ = 1 to 10_000 do
    let v = Prng.int r 17 in
    if v < 0 || v >= 17 then Alcotest.failf "out of range: %d" v
  done

let test_prng_int_in_bounds () =
  let r = Prng.create 7L in
  for _ = 1 to 10_000 do
    let v = Prng.int_in r (-5) 5 in
    if v < -5 || v > 5 then Alcotest.failf "out of range: %d" v
  done

let test_prng_int_covers () =
  let r = Prng.create 3L in
  let seen = Array.make 10 false in
  for _ = 1 to 1000 do
    seen.(Prng.int r 10) <- true
  done;
  Array.iteri (fun i b -> if not b then Alcotest.failf "value %d never drawn" i) seen

let test_prng_float_bounds () =
  let r = Prng.create 11L in
  for _ = 1 to 10_000 do
    let v = Prng.float r 2.5 in
    if v < 0.0 || v >= 2.5 then Alcotest.failf "out of range: %f" v
  done

let test_prng_split_independent () =
  let a = Prng.create 5L in
  let b = Prng.split a in
  let xa = List.init 8 (fun _ -> Prng.next_int64 a) in
  let xb = List.init 8 (fun _ -> Prng.next_int64 b) in
  check Alcotest.bool "split streams differ" true (xa <> xb)

let test_prng_copy () =
  let a = Prng.create 9L in
  ignore (Prng.next_int64 a);
  let b = Prng.copy a in
  check Alcotest.int64 "copy continues identically" (Prng.next_int64 a) (Prng.next_int64 b)

let test_prng_bytes_len () =
  let r = Prng.create 1L in
  check Alcotest.int "length" 33 (String.length (Prng.bytes r 33))

let test_prng_shuffle_permutes () =
  let r = Prng.create 123L in
  let a = Array.init 50 Fun.id in
  Prng.shuffle r a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  check Alcotest.(array int) "same multiset" (Array.init 50 Fun.id) sorted;
  check Alcotest.bool "actually permuted" true (a <> Array.init 50 Fun.id)

let test_prng_invalid () =
  Alcotest.check_raises "int 0" (Invalid_argument "Prng.int") (fun () ->
      ignore (Prng.int (Prng.create 1L) 0));
  Alcotest.check_raises "int_in empty" (Invalid_argument "Prng.int_in") (fun () ->
      ignore (Prng.int_in (Prng.create 1L) 3 2))

(* ------------------------------- Hex ------------------------------- *)

let test_hex_known () =
  check Alcotest.string "abc" "616263" (Hex.encode "abc");
  check Alcotest.string "empty" "" (Hex.encode "");
  check Alcotest.string "zero byte" "00" (Hex.encode "\x00");
  check Alcotest.string "decode" "abc" (Hex.decode "616263");
  check Alcotest.string "decode uppercase" "\xde\xad\xbe\xef" (Hex.decode "DEADBEEF")

let test_hex_invalid () =
  Alcotest.check_raises "odd length" (Invalid_argument "Hex.decode") (fun () ->
      ignore (Hex.decode "abc"));
  Alcotest.check_raises "bad digit" (Invalid_argument "Hex.decode") (fun () ->
      ignore (Hex.decode "zz"))

let hex_roundtrip =
  qtest "hex roundtrip" QCheck.string (fun s -> Hex.decode (Hex.encode s) = s)

(* ------------------------------- Wire ------------------------------ *)

let test_wire_varint_roundtrip () =
  List.iter
    (fun v ->
      let w = Wire.writer () in
      Wire.varint w v;
      let r = Wire.reader (Wire.contents w) in
      check Alcotest.int (Printf.sprintf "varint %d" v) v (Wire.read_varint r);
      check Alcotest.bool "consumed" true (Wire.at_end r))
    [ 0; 1; 127; 128; 300; 16384; 1 lsl 40; max_int / 2 ]

let test_wire_int_roundtrip () =
  List.iter
    (fun v ->
      let w = Wire.writer () in
      Wire.int w v;
      let r = Wire.reader (Wire.contents w) in
      check Alcotest.int (Printf.sprintf "int %d" v) v (Wire.read_int r))
    [ 0; 1; -1; 63; -64; 1000; -1000; max_int / 4; -(max_int / 4) ]

let test_wire_bytes_roundtrip () =
  let w = Wire.writer () in
  Wire.bytes w "hello";
  Wire.bytes w "";
  Wire.bytes w "\x00\xff";
  let r = Wire.reader (Wire.contents w) in
  check Alcotest.string "s1" "hello" (Wire.read_bytes r);
  check Alcotest.string "s2" "" (Wire.read_bytes r);
  check Alcotest.string "s3" "\x00\xff" (Wire.read_bytes r);
  check Alcotest.bool "consumed" true (Wire.at_end r)

let test_wire_list_roundtrip () =
  let w = Wire.writer () in
  Wire.list w (Wire.int w) [ 3; -7; 0; 42 ];
  let r = Wire.reader (Wire.contents w) in
  check Alcotest.(list int) "list" [ 3; -7; 0; 42 ] (Wire.read_list r Wire.read_int)

let test_wire_truncated () =
  let w = Wire.writer () in
  Wire.bytes w "hello";
  let s = Wire.contents w in
  let r = Wire.reader (String.sub s 0 (String.length s - 1)) in
  Alcotest.check_raises "truncated" (Failure "Wire: truncated") (fun () ->
      ignore (Wire.read_bytes r))

let wire_mixed_roundtrip =
  qtest "wire mixed roundtrip"
    QCheck.(pair (small_list int) string)
    (fun (xs, s) ->
      let w = Wire.writer () in
      Wire.list w (Wire.int w) xs;
      Wire.bytes w s;
      let r = Wire.reader (Wire.contents w) in
      let xs' = Wire.read_list r Wire.read_int in
      let s' = Wire.read_bytes r in
      xs' = xs && s' = s && Wire.at_end r)

(* ------------------------------ Pvec -------------------------------- *)

let test_pvec_basics () =
  let v = Pvec.of_array [| 10; 20; 30; 40; 50 |] in
  check Alcotest.int "length" 5 (Pvec.length v);
  check Alcotest.int "get" 30 (Pvec.get v 2);
  check Alcotest.(list int) "to_list" [ 10; 20; 30; 40; 50 ] (Pvec.to_list v);
  check Alcotest.(array int) "to_array" [| 10; 20; 30; 40; 50 |] (Pvec.to_array v)

let test_pvec_set_persistent () =
  let v = Pvec.of_array [| 1; 2; 3 |] in
  let v' = Pvec.set v 1 99 in
  check Alcotest.int "old unchanged" 2 (Pvec.get v 1);
  check Alcotest.int "new changed" 99 (Pvec.get v' 1);
  check Alcotest.int "other slots shared" 3 (Pvec.get v' 2)

let test_pvec_swap () =
  let v = Pvec.of_array [| 1; 2; 3; 4 |] in
  let v' = Pvec.swap_adjacent v 1 in
  check Alcotest.(list int) "swapped" [ 1; 3; 2; 4 ] (Pvec.to_list v');
  check Alcotest.(list int) "original intact" [ 1; 2; 3; 4 ] (Pvec.to_list v)

let test_pvec_bounds () =
  let v = Pvec.of_array [| 1 |] in
  Alcotest.check_raises "get oob" (Invalid_argument "Pvec.get: out of bounds") (fun () ->
      ignore (Pvec.get v 1));
  Alcotest.check_raises "empty" (Invalid_argument "Pvec.of_array: empty") (fun () ->
      ignore (Pvec.of_array [||]))

let pvec_model =
  qtest ~count:300 "pvec behaves like an array"
    QCheck.(pair (array_of_size Gen.(int_range 1 40) small_nat) (small_list (pair small_nat small_nat)))
    (fun (a, updates) ->
      let n = Array.length a in
      let model = Array.copy a in
      let v = ref (Pvec.of_array a) in
      List.iter
        (fun (i, x) ->
          let i = i mod n in
          model.(i) <- x;
          v := Pvec.set !v i x)
        updates;
      Pvec.to_array !v = model)

(* ----------------------------- Histogram ---------------------------- *)

let hist_of_list xs =
  let t = Histogram.create () in
  List.iter (Histogram.observe t) xs;
  t

(* the full observable state: bucket contents plus every scalar gauge —
   "equal" below means indistinguishable through the public API *)
let hobs t =
  (Histogram.buckets t, Histogram.count t, Histogram.sum t, Histogram.max_value t)

let hist_gen = QCheck.(list_of_size Gen.(int_range 0 200) (int_range 0 2_000_000))

let hist_merge_commutative =
  qtest ~count:300 "merge commutative" QCheck.(pair hist_gen hist_gen)
    (fun (a, b) ->
      hobs (Histogram.merge (hist_of_list a) (hist_of_list b))
      = hobs (Histogram.merge (hist_of_list b) (hist_of_list a)))

let hist_merge_associative =
  qtest ~count:300 "merge associative" QCheck.(triple hist_gen hist_gen hist_gen)
    (fun (a, b, c) ->
      let ha = hist_of_list a and hb = hist_of_list b and hc = hist_of_list c in
      hobs (Histogram.merge (Histogram.merge ha hb) hc)
      = hobs (Histogram.merge ha (Histogram.merge hb hc)))

let hist_merge_identity =
  qtest ~count:300 "merge with empty is identity" hist_gen (fun xs ->
      let h = hist_of_list xs in
      hobs (Histogram.merge h (Histogram.create ())) = hobs h
      && hobs (Histogram.merge (Histogram.create ()) h) = hobs h)

let hist_merge_count =
  qtest ~count:300 "merge preserves count and sum" QCheck.(pair hist_gen hist_gen)
    (fun (a, b) ->
      let m = Histogram.merge (hist_of_list a) (hist_of_list b) in
      Histogram.count m = List.length a + List.length b
      && Histogram.sum m = List.fold_left ( + ) 0 a + List.fold_left ( + ) 0 b)

let hist_percentile_monotone =
  qtest ~count:300 "percentile monotone in p"
    QCheck.(triple hist_gen (int_range 0 1000) (int_range 0 1000))
    (fun (xs, p, q) ->
      let h = hist_of_list xs in
      let p, q = (min p q, max p q) in
      Histogram.percentile_permille h p <= Histogram.percentile_permille h q)

let hist_percentile_bounded =
  qtest ~count:300 "percentile within [min obs, max obs] bucket bounds"
    QCheck.(pair (list_of_size Gen.(int_range 1 200) (int_range 0 2_000_000)) (int_range 0 1000))
    (fun (xs, p) ->
      let h = hist_of_list xs in
      let v = Histogram.percentile_permille h p in
      (* a bucket upper bound is never below the smallest observation,
         and the last occupied bucket reports the exact max *)
      v >= List.fold_left min max_int xs && v <= Histogram.max_value h)

let test_hist_permille_exact () =
  let t = Histogram.create () in
  for _ = 1 to 999 do
    Histogram.observe t 1
  done;
  Histogram.observe t 1_000_000;
  (* rank ceil(999 * 1000 / 1000) = 999 lands on the 999 ones; only
     p = 1000 reaches the outlier *)
  check Alcotest.int "p50" 1 (Histogram.percentile_permille t 500);
  check Alcotest.int "p999" 1 (Histogram.percentile_permille t 999);
  check Alcotest.int "p1000 = exact max" 1_000_000 (Histogram.percentile_permille t 1000);
  check Alcotest.int "percent delegates" (Histogram.percentile_permille t 990)
    (Histogram.percentile t 99);
  check Alcotest.int "empty" 0 (Histogram.percentile_permille (Histogram.create ()) 999);
  Alcotest.check_raises "p > 1000" (Invalid_argument "Histogram.percentile_permille")
    (fun () -> ignore (Histogram.percentile_permille t 1001))

(* ----------------------------- Metrics ----------------------------- *)

let test_metrics_counts () =
  Metrics.reset ();
  Metrics.add_hash ~bytes_len:10;
  Metrics.add_hash ~bytes_len:20;
  Metrics.add_sign ();
  Metrics.add_verify ();
  Metrics.add_itree_nodes 3;
  Metrics.add_fmh_nodes 4;
  Metrics.add_mesh_cells 5;
  Metrics.add_bytes_out 100;
  let s = Metrics.snapshot () in
  check Alcotest.int "hash_ops" 2 s.hash_ops;
  check Alcotest.int "hash_bytes" 30 s.hash_bytes;
  check Alcotest.int "sign_ops" 1 s.sign_ops;
  check Alcotest.int "verify_ops" 1 s.verify_ops;
  check Alcotest.int "node visits" 12 (Metrics.total_node_visits s);
  check Alcotest.int "bytes_out" 100 s.bytes_out;
  Metrics.reset ();
  let z = Metrics.snapshot () in
  check Alcotest.int "reset" 0 (Metrics.total_node_visits z + z.hash_ops + z.bytes_out)

let test_metrics_diff () =
  Metrics.reset ();
  Metrics.add_hash ~bytes_len:5;
  let before = Metrics.snapshot () in
  Metrics.add_hash ~bytes_len:7;
  Metrics.add_sign ();
  let after = Metrics.snapshot () in
  let d = Metrics.diff after before in
  check Alcotest.int "hash_ops diff" 1 d.hash_ops;
  check Alcotest.int "hash_bytes diff" 7 d.hash_bytes;
  check Alcotest.int "sign diff" 1 d.sign_ops

let test_metrics_scopes () =
  let shape = Metrics.keys [ "b"; "a" ] in
  let a = Metrics.key shape "a" and b = Metrics.key shape "b" in
  let s1 = Metrics.scope shape and s2 = Metrics.scope shape in
  Metrics.incr s1 a;
  Metrics.add s1 b 5;
  Metrics.add s2 a (-2);
  check Alcotest.(list (pair string int)) "key order" [ ("b", 5); ("a", 1) ]
    (Metrics.to_assoc s1);
  check Alcotest.(list (pair string int)) "own cells" [ ("b", 0); ("a", -2) ]
    (Metrics.to_assoc s2);
  let raises f = match f () with exception Invalid_argument _ -> true | _ -> false in
  check Alcotest.bool "duplicate name" true (raises (fun () -> ignore (Metrics.keys [ "x"; "x" ])));
  check Alcotest.bool "unknown name" true (raises (fun () -> ignore (Metrics.key shape "c")));
  let other = Metrics.scope (Metrics.keys [ "a" ]) in
  check Alcotest.bool "key of another list" true (raises (fun () -> Metrics.incr other a))

let () =
  Alcotest.run "aqv_util"
    [
      ( "prng",
        [
          Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_prng_seed_sensitivity;
          Alcotest.test_case "int bounds" `Quick test_prng_int_bounds;
          Alcotest.test_case "int_in bounds" `Quick test_prng_int_in_bounds;
          Alcotest.test_case "int covers range" `Quick test_prng_int_covers;
          Alcotest.test_case "float bounds" `Quick test_prng_float_bounds;
          Alcotest.test_case "split independent" `Quick test_prng_split_independent;
          Alcotest.test_case "copy" `Quick test_prng_copy;
          Alcotest.test_case "bytes length" `Quick test_prng_bytes_len;
          Alcotest.test_case "shuffle permutes" `Quick test_prng_shuffle_permutes;
          Alcotest.test_case "invalid args" `Quick test_prng_invalid;
        ] );
      ( "hex",
        [
          Alcotest.test_case "known vectors" `Quick test_hex_known;
          Alcotest.test_case "invalid input" `Quick test_hex_invalid;
          hex_roundtrip;
        ] );
      ( "wire",
        [
          Alcotest.test_case "varint roundtrip" `Quick test_wire_varint_roundtrip;
          Alcotest.test_case "int roundtrip" `Quick test_wire_int_roundtrip;
          Alcotest.test_case "bytes roundtrip" `Quick test_wire_bytes_roundtrip;
          Alcotest.test_case "list roundtrip" `Quick test_wire_list_roundtrip;
          Alcotest.test_case "truncated input" `Quick test_wire_truncated;
          wire_mixed_roundtrip;
        ] );
      ( "pvec",
        [
          Alcotest.test_case "basics" `Quick test_pvec_basics;
          Alcotest.test_case "set persistent" `Quick test_pvec_set_persistent;
          Alcotest.test_case "swap adjacent" `Quick test_pvec_swap;
          Alcotest.test_case "bounds" `Quick test_pvec_bounds;
          pvec_model;
        ] );
      ( "histogram",
        [
          hist_merge_commutative;
          hist_merge_associative;
          hist_merge_identity;
          hist_merge_count;
          hist_percentile_monotone;
          hist_percentile_bounded;
          Alcotest.test_case "permille exact ranks" `Quick test_hist_permille_exact;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counters" `Quick test_metrics_counts;
          Alcotest.test_case "diff" `Quick test_metrics_diff;
          Alcotest.test_case "scopes" `Quick test_metrics_scopes;
        ] );
    ]
