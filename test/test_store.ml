(* The durable store: snapshot + write-ahead log + recovery.

   The headline property mirrors the serving contract: for any snapshot
   and any replayable delta suffix, recovery lands byte-for-byte on the
   index the in-memory hot-swap path was serving (apply == rebuild makes
   the replay deterministic), and truncating the log at *every* byte
   offset always recovers a valid epoch-prefix of the delta chain —
   never a panic, never a non-prefix epoch. Corruption that is not a
   torn tail (bit flips, foreign frames, epoch gaps) must surface as a
   typed Error, not be served. CI runs this binary under AQV_DOMAINS=1
   and =2. *)

module Prng = Aqv_util.Prng
module Wire = Aqv_util.Wire
module Metrics = Aqv_util.Metrics
module Q = Aqv_num.Rational
module Signer = Aqv_crypto.Signer
module Record = Aqv_db.Record
module Table = Aqv_db.Table
module Workload = Aqv_db.Workload
module Crc32 = Aqv_store.Crc32
module Serror = Aqv_store.Error
module Fault = Aqv_store.Fault
module Snapshot = Aqv_store.Snapshot
module Wal = Aqv_store.Wal
module Store = Aqv_store.Store
module Engine = Aqv_serve.Engine
module Roundtrip = Aqv_serve.Roundtrip
open Aqv

let check = Alcotest.check
let hex = Aqv_util.Hex.encode

(* Deterministic fake signer (see test_update.ml): signature identity is
   digest identity, cheap enough for property tests. *)
let fake_keypair =
  {
    Signer.algorithm = Signer.Rsa;
    sign =
      (fun d ->
        Metrics.add_sign ();
        "sig:" ^ d);
    verify = (fun d s -> String.equal s ("sig:" ^ d));
    signature_size = 36;
    public = Signer.Unverifiable;
  }

let save_bytes index =
  let w = Wire.writer () in
  Ifmh.save w index;
  Wire.contents w

let read_file path =
  let ic = open_in_bin path in
  let b = really_input_string ic (in_channel_length ic) in
  close_in ic;
  b

let write_file path contents =
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

let temp_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "aqv-store-%d-%d" (Unix.getpid ()) !counter)
    in
    if Sys.file_exists d then rm_rf d;
    Unix.mkdir d 0o755;
    d

let with_dir f =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> try rm_rf dir with Sys_error _ -> ()) (fun () -> f dir)

let err_name = function
  | Serror.Bad_magic _ -> "Bad_magic"
  | Serror.Checksum_mismatch _ -> "Checksum_mismatch"
  | Serror.Truncated _ -> "Truncated"
  | Serror.Decode_failed _ -> "Decode_failed"
  | Serror.Header_mismatch _ -> "Header_mismatch"
  | Serror.Epoch_gap _ -> "Epoch_gap"
  | Serror.Replay_failed _ -> "Replay_failed"
  | Serror.Io_error _ -> "Io_error"

let expect_error name = function
  | Ok _ -> Alcotest.failf "expected %s, recovery succeeded" name
  | Error e -> check Alcotest.string "typed error" name (err_name e)

(* Random change sequences against the evolving id set (test_update). *)
let gen_changes ~dims prng table k =
  let ids = ref (Array.to_list (Array.map Record.id (Table.records table))) in
  let next_id =
    ref
      (Array.fold_left
         (fun acc r -> max acc (Record.id r + 1))
         1000 (Table.records table))
  in
  let mk_attrs () =
    if dims = 1 then
      [| Q.of_int (Prng.int_in prng (-50) 50); Q.of_int (Prng.int_in prng 0 50) |]
    else Array.init dims (fun _ -> Q.of_int (Prng.int_in prng 0 20))
  in
  let pick () = List.nth !ids (Prng.int prng (List.length !ids)) in
  List.init k (fun _ ->
      match Prng.int prng 3 with
      | 0 ->
        let id = !next_id in
        incr next_id;
        ids := id :: !ids;
        Update.Insert (Record.make ~id ~attrs:(mk_attrs ()) ())
      | 1 when List.length !ids > 1 ->
        let id = pick () in
        ids := List.filter (fun i -> i <> id) !ids;
        Update.Delete id
      | _ -> Update.Modify (Record.make ~id:(pick ()) ~attrs:(mk_attrs ()) ()))

let gen_table ~dims prng =
  let n = if dims = 1 then 5 + Prng.int prng 6 else 4 + Prng.int prng 3 in
  if dims = 1 then Workload.lines_1d ~slope_range:40 ~intercept_range:40 ~n prng
  else Workload.scored ~attr_range:20 ~n ~dims prng

(* Publish [index0] and append [k] random deltas; returns the closed
   store directory plus the expected index image after each prefix:
   images.(i) = save bytes after replaying i deltas. *)
let seed_store ~dims ~scheme prng dir k =
  let table = gen_table ~dims prng in
  let index0 = Ifmh.build ~scheme ~epoch:1 table fake_keypair in
  let store = Store.publish ~dir index0 in
  let index = ref index0 and tbl = ref table in
  let images = ref [ save_bytes index0 ] in
  for _ = 1 to k do
    let changes = gen_changes ~dims prng !tbl (1 + Prng.int prng 2) in
    let updated = Ifmh.apply fake_keypair changes !index in
    Store.append store ~base:!index (Ifmh.delta ~changes updated);
    tbl := Update.apply_table changes !tbl;
    index := updated;
    images := save_bytes updated :: !images
  done;
  Store.close store;
  Array.of_list (List.rev !images)

(* ------------------------------ crc32 ------------------------------- *)

let test_crc32 () =
  (* the standard check value for CRC-32/IEEE *)
  check Alcotest.int "123456789" 0xCBF43926 (Crc32.string "123456789");
  check Alcotest.int "empty" 0 (Crc32.string "");
  let s = "the quick brown fox jumps over the lazy dog" in
  let split = 17 in
  let inc =
    Crc32.update (Crc32.update 0 s 0 split) s split (String.length s - split)
  in
  check Alcotest.int "incremental = one-shot" (Crc32.string s) inc;
  check Alcotest.string "be32 roundtrip" "\xCB\xF4\x39\x26" (Crc32.be32 0xCBF43926);
  check Alcotest.int "read_be32" 0xCBF43926 (Crc32.read_be32 "\xCB\xF4\x39\x26" 0)

(* ----------------------------- snapshot ----------------------------- *)

let test_snapshot_roundtrip () =
  with_dir (fun dir ->
      let table = Workload.lines_1d ~n:12 (Prng.create 51L) in
      List.iter
        (fun scheme ->
          let index = Ifmh.build ~scheme ~epoch:3 table fake_keypair in
          let path = Filename.concat dir "snap.bin" in
          Snapshot.write ~path index;
          match Snapshot.read ~path () with
          | Error e -> Alcotest.failf "read failed: %s" (Serror.to_string e)
          | Ok (back, hdr) ->
            check Alcotest.string "byte-identical" (hex (save_bytes index))
              (hex (save_bytes back));
            check Alcotest.int "header epoch" 3 hdr.Snapshot.epoch;
            check Alcotest.int "header n_leaves"
              (Table.size table + 2)
              hdr.Snapshot.n_leaves;
            check Alcotest.bool "header scheme" true (hdr.Snapshot.scheme = scheme))
        [ Ifmh.One_signature; Ifmh.Multi_signature ])

let test_snapshot_errors () =
  with_dir (fun dir ->
      let table = Workload.lines_1d ~n:8 (Prng.create 52L) in
      let index = Ifmh.build ~scheme:Ifmh.Multi_signature ~epoch:1 table fake_keypair in
      let path = Filename.concat dir "snap.bin" in
      Snapshot.write ~path index;
      let good = read_file path in
      (* missing *)
      expect_error "Io_error" (Snapshot.read ~path:(Filename.concat dir "no") ());
      (* bad magic *)
      write_file path ("XXVSNP1\n" ^ String.sub good 8 (String.length good - 8));
      expect_error "Bad_magic" (Snapshot.read ~path ());
      (* truncated body: drop the tail *)
      write_file path (String.sub good 0 (String.length good - 24));
      expect_error "Truncated" (Snapshot.read ~path ());
      (* bit flip in the body *)
      let flipped = Bytes.of_string good in
      let mid = String.length good / 2 in
      Bytes.set flipped mid (Char.chr (Char.code good.[mid] lxor 0x10));
      write_file path (Bytes.to_string flipped);
      expect_error "Checksum_mismatch" (Snapshot.read ~path ());
      (* short read via injected fault *)
      write_file path good;
      let fault = Fault.create () in
      Fault.arm fault (Fault.Short_read (String.length good - 5));
      expect_error "Truncated" (Snapshot.read ~fault ~path ());
      (* and the pristine file still reads back fine *)
      match Snapshot.read ~path () with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "pristine read failed: %s" (Serror.to_string e))

(* ------------------------------- wal -------------------------------- *)

let test_wal_roundtrip () =
  with_dir (fun dir ->
      let path = Filename.concat dir "wal.log" in
      let wal = Wal.create ~path in
      let frames =
        [
          { Wal.base_epoch = 1; delta = "first delta" };
          { Wal.base_epoch = 2; delta = String.make 300 'x' };
          { Wal.base_epoch = 3; delta = "" };
        ]
      in
      List.iter (Wal.append wal) frames;
      check Alcotest.int "frames counted" 3 (Wal.frames wal);
      check Alcotest.int "bytes counted"
        (Aqv_store.Ioutil.file_size path)
        (Wal.size_bytes wal);
      Wal.close wal;
      match Wal.scan ~path () with
      | Error e -> Alcotest.failf "scan failed: %s" (Serror.to_string e)
      | Ok sc ->
        check Alcotest.int "all frames scanned" 3 (List.length sc.Wal.scanned);
        check Alcotest.int "no torn tail" 0 sc.Wal.torn_bytes;
        List.iter2
          (fun (a : Wal.frame) (b : Wal.frame) ->
            check Alcotest.int "base epoch" a.Wal.base_epoch b.Wal.base_epoch;
            check Alcotest.string "delta bytes" a.Wal.delta b.Wal.delta)
          frames sc.Wal.scanned)

(* --------------------- torn-tail property test ---------------------- *)

(* Truncate the log at EVERY byte offset: scan must always succeed and
   yield a prefix of the appended frames; full recovery, checked once
   per distinct prefix length, must serve exactly the epoch that prefix
   reaches — under BOTH replay modes, byte-identically, with the
   coalesced counter reporting how many frames were folded (0 when
   replaying frame-by-frame). *)
let prop_torn_tail ~dims ~scheme seed =
  with_dir (fun dir ->
      let prng = Prng.create (Int64.of_int seed) in
      let k = 1 + Prng.int prng 3 in
      let images = seed_store ~dims ~scheme prng dir k in
      let wal_path = Store.wal_path dir in
      let full = read_file wal_path in
      let len = String.length full in
      let checked = Array.make (k + 1) false in
      let ok = ref true in
      for cut = 0 to len do
        write_file wal_path (String.sub full 0 cut);
        (match Wal.scan ~path:wal_path () with
        | Error e ->
          ok := false;
          Printf.printf "scan at cut %d errored: %s\n" cut (Serror.to_string e)
        | Ok sc ->
          let m = List.length sc.Wal.scanned in
          if m > k then begin
            ok := false;
            Printf.printf "cut %d scanned %d > %d frames\n" cut m k
          end
          else if not checked.(m) then begin
            checked.(m) <- true;
            List.iter
              (fun (mode, mode_name, want_coalesced) ->
                match Store.open_dir ~replay:mode dir with
                | Error e ->
                  ok := false;
                  Printf.printf "%s recovery at cut %d errored: %s\n" mode_name
                    cut (Serror.to_string e)
                | Ok (store, index, recovery) ->
                  Store.close store;
                  if not (String.equal (save_bytes index) images.(m)) then begin
                    ok := false;
                    Printf.printf "cut %d: %s recovered bytes differ at prefix %d\n"
                      cut mode_name m
                  end;
                  if recovery.Store.final_epoch <> 1 + m then begin
                    ok := false;
                    Printf.printf "cut %d: %s epoch %d, want %d\n" cut mode_name
                      recovery.Store.final_epoch (1 + m)
                  end;
                  if recovery.Store.coalesced <> want_coalesced then begin
                    ok := false;
                    Printf.printf "cut %d: %s coalesced %d, want %d\n" cut
                      mode_name recovery.Store.coalesced want_coalesced
                  end)
              [ (`Coalesced, "coalesced", m); (`Sequential, "sequential", 0) ]
          end)
      done;
      (* every prefix length must actually occur (cut at exact frame
         boundaries), so the byte-identity above covered 0..k *)
      Array.iteri
        (fun m seen ->
          if not seen then begin
            ok := false;
            Printf.printf "prefix %d never produced by any cut\n" m
          end)
        checked;
      !ok)

let qtest name count gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

let arb_seed = QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 1_000_000)

let torn_tail_tests =
  [
    qtest "torn tail (one-sig, 1-D)" 8 arb_seed
      (prop_torn_tail ~dims:1 ~scheme:Ifmh.One_signature);
    qtest "torn tail (multi-sig, 1-D)" 8 arb_seed
      (prop_torn_tail ~dims:1 ~scheme:Ifmh.Multi_signature);
    qtest "torn tail (one-sig, 2-D)" 6 arb_seed
      (prop_torn_tail ~dims:2 ~scheme:Ifmh.One_signature);
    qtest "torn tail (multi-sig, 2-D)" 6 arb_seed
      (prop_torn_tail ~dims:2 ~scheme:Ifmh.Multi_signature);
  ]

(* ----------------------------- recovery ----------------------------- *)

(* Recovery == hot-swap byte-identity, both schemes, deterministic. *)
let test_recovery_identity () =
  List.iter
    (fun scheme ->
      with_dir (fun dir ->
          let prng = Prng.create 61L in
          let images = seed_store ~dims:1 ~scheme prng dir 3 in
          match Store.open_dir dir with
          | Error e -> Alcotest.failf "recovery failed: %s" (Serror.to_string e)
          | Ok (store, index, recovery) ->
            Store.close store;
            check Alcotest.string "recovered = hot-swapped"
              (hex images.(3))
              (hex (save_bytes index));
            check Alcotest.int "snapshot epoch" 1 recovery.Store.snapshot_epoch;
            check Alcotest.int "final epoch" 4 recovery.Store.final_epoch;
            check Alcotest.int "replayed" 3 recovery.Store.replayed;
            check Alcotest.int "nothing skipped" 0 recovery.Store.skipped))
    [ Ifmh.One_signature; Ifmh.Multi_signature ]

let test_recovery_missing_wal () =
  with_dir (fun dir ->
      let prng = Prng.create 62L in
      let images = seed_store ~dims:1 ~scheme:Ifmh.Multi_signature prng dir 0 in
      Sys.remove (Store.wal_path dir);
      match Store.open_dir dir with
      | Error e -> Alcotest.failf "recovery failed: %s" (Serror.to_string e)
      | Ok (store, index, recovery) ->
        check Alcotest.string "snapshot served" (hex images.(0))
          (hex (save_bytes index));
        check Alcotest.int "no replay" 0 recovery.Store.replayed;
        check Alcotest.bool "wal recreated" true (Sys.file_exists (Store.wal_path dir));
        (* the recreated log accepts appends *)
        let index' =
          Ifmh.apply fake_keypair
            [ Update.Modify (Record.make ~id:0 ~attrs:[| Q.of_int 3; Q.of_int 4 |] ()) ]
            index
        in
        Store.append store ~base:index
          (Ifmh.delta
             ~changes:
               [ Update.Modify (Record.make ~id:0 ~attrs:[| Q.of_int 3; Q.of_int 4 |] ()) ]
             index');
        check Alcotest.int "frame landed" 1 (Store.log_frames store);
        Store.close store)

let test_recovery_epoch_gap () =
  with_dir (fun dir ->
      let prng = Prng.create 63L in
      let _ = seed_store ~dims:1 ~scheme:Ifmh.Multi_signature prng dir 0 in
      (* hand-append a frame claiming to apply to epoch 5: CRC-valid,
         but not a continuation of the epoch-1 snapshot *)
      let wal_path = Store.wal_path dir in
      let frame = Wal.encode_frame { Wal.base_epoch = 5; delta = "bogus" } in
      write_file wal_path (read_file wal_path ^ frame);
      expect_error "Epoch_gap" (Store.open_dir dir |> Result.map (fun _ -> ())))

(* Torn compaction: snapshot already rewritten at the new epoch, log not
   yet reset. The stale frame must be skipped, not an error. *)
let test_recovery_skips_stale_frames () =
  with_dir (fun dir ->
      let prng = Prng.create 64L in
      let table = gen_table ~dims:1 prng in
      let index1 = Ifmh.build ~scheme:Ifmh.Multi_signature ~epoch:1 table fake_keypair in
      let store = Store.publish ~dir index1 in
      let changes = gen_changes ~dims:1 prng table 2 in
      let index2 = Ifmh.apply fake_keypair changes index1 in
      Store.append store ~base:index1 (Ifmh.delta ~changes index2);
      Store.close store;
      (* crash mid-compaction: snapshot advances, log keeps the frame *)
      Snapshot.write ~path:(Store.snapshot_path dir) index2;
      match Store.open_dir dir with
      | Error e -> Alcotest.failf "recovery failed: %s" (Serror.to_string e)
      | Ok (store, index, recovery) ->
        Store.close store;
        check Alcotest.string "epoch-2 snapshot served" (hex (save_bytes index2))
          (hex (save_bytes index));
        check Alcotest.int "stale frame skipped" 1 recovery.Store.skipped;
        check Alcotest.int "nothing replayed" 0 recovery.Store.replayed)

(* Coalescing must decide staleness per frame BEFORE folding: here the
   stale frame inserts id 500, which the advanced snapshot already
   contains — folding it into the net change list would make the single
   rebuild fail with "insert of existing id" (or worse, double-apply).
   The skipped frame must stay out of the fold entirely. *)
let test_coalesce_skips_stale_frame () =
  with_dir (fun dir ->
      let prng = Prng.create 71L in
      let table = gen_table ~dims:1 prng in
      let index1 = Ifmh.build ~scheme:Ifmh.Multi_signature ~epoch:1 table fake_keypair in
      let store = Store.publish ~dir index1 in
      let changes_a =
        [ Update.Insert (Record.make ~id:500 ~attrs:[| Q.of_int 3; Q.of_int 7 |] ()) ]
      in
      let index2 = Ifmh.apply fake_keypair changes_a index1 in
      Store.append store ~base:index1 (Ifmh.delta ~changes:changes_a index2);
      let changes_b =
        [ Update.Modify (Record.make ~id:500 ~attrs:[| Q.of_int 5; Q.of_int 2 |] ()) ]
      in
      let index3 = Ifmh.apply fake_keypair changes_b index2 in
      Store.append store ~base:index2 (Ifmh.delta ~changes:changes_b index3);
      Store.close store;
      (* crash mid-compaction: the snapshot already carries epoch 2, the
         log still holds the epoch-1 frame ahead of the live one *)
      Snapshot.write ~path:(Store.snapshot_path dir) index2;
      List.iter
        (fun (mode, want_coalesced) ->
          match Store.open_dir ~replay:mode dir with
          | Error e -> Alcotest.failf "recovery failed: %s" (Serror.to_string e)
          | Ok (store, index, recovery) ->
            Store.close store;
            check Alcotest.string "live frame replayed over new snapshot"
              (hex (save_bytes index3))
              (hex (save_bytes index));
            check Alcotest.int "stale frame skipped" 1 recovery.Store.skipped;
            check Alcotest.int "live frame replayed" 1 recovery.Store.replayed;
            check Alcotest.int "only the live frame coalesced" want_coalesced
              recovery.Store.coalesced)
        [ (`Coalesced, 1); (`Sequential, 0) ])

(* Inserts, deletes, modifies and a delete-then-reinsert spread over
   several frames: the coalesced single-rebuild recovery, the
   frame-by-frame recovery, and the hot-swap path must all land on the
   same bytes. *)
let test_coalesce_mixed_frames () =
  with_dir (fun dir ->
      let prng = Prng.create 72L in
      let table = gen_table ~dims:1 prng in
      let rec2 id a b = Record.make ~id ~attrs:[| Q.of_int a; Q.of_int b |] () in
      let some_id = Record.id (Table.records table).(0) in
      let index1 = Ifmh.build ~scheme:Ifmh.Multi_signature ~epoch:1 table fake_keypair in
      let store = Store.publish ~dir index1 in
      let frames =
        [
          [ Update.Insert (rec2 500 2 9); Update.Modify (rec2 some_id 1 1) ];
          [ Update.Delete 500; Update.Insert (rec2 501 (-4) 6) ];
          [ Update.Insert (rec2 500 8 0); Update.Modify (rec2 501 3 3) ];
        ]
      in
      let final =
        List.fold_left
          (fun index changes ->
            let updated = Ifmh.apply fake_keypair changes index in
            Store.append store ~base:index (Ifmh.delta ~changes updated);
            updated)
          index1 frames
      in
      Store.close store;
      List.iter
        (fun (mode, want_coalesced) ->
          match Store.open_dir ~replay:mode dir with
          | Error e -> Alcotest.failf "recovery failed: %s" (Serror.to_string e)
          | Ok (store, index, recovery) ->
            Store.close store;
            check Alcotest.string "recovered = hot-swapped"
              (hex (save_bytes final))
              (hex (save_bytes index));
            check Alcotest.int "all frames replayed" 3 recovery.Store.replayed;
            check Alcotest.int "coalesced count" want_coalesced
              recovery.Store.coalesced;
            check Alcotest.int "final epoch" 4 recovery.Store.final_epoch)
        [ (`Coalesced, 3); (`Sequential, 0) ])

let test_compaction_policy () =
  with_dir (fun dir ->
      let prng = Prng.create 65L in
      let table = gen_table ~dims:1 prng in
      let policy = { Store.max_log_frames = 2; max_log_bytes = max_int } in
      let index1 = Ifmh.build ~scheme:Ifmh.Multi_signature ~epoch:1 table fake_keypair in
      let store = Store.publish ~policy ~dir index1 in
      let step tbl index =
        let changes = gen_changes ~dims:1 prng tbl 1 in
        let updated = Ifmh.apply fake_keypair changes index in
        Store.append store ~base:index (Ifmh.delta ~changes updated);
        (Update.apply_table changes tbl, updated)
      in
      let tbl, index2 = step table index1 in
      check Alcotest.bool "not due yet" false (Store.maybe_compact store index2);
      let _, index3 = step tbl index2 in
      check Alcotest.int "two frames pending" 2 (Store.log_frames store);
      check Alcotest.bool "compaction due" true (Store.maybe_compact store index3);
      check Alcotest.int "log reset" 0 (Store.log_frames store);
      Store.close store;
      (* post-compaction recovery: snapshot alone carries epoch 3 *)
      match Store.open_dir ~policy dir with
      | Error e -> Alcotest.failf "recovery failed: %s" (Serror.to_string e)
      | Ok (store, index, recovery) ->
        Store.close store;
        check Alcotest.string "compacted snapshot byte-identical"
          (hex (save_bytes index3))
          (hex (save_bytes index));
        check Alcotest.int "no replay needed" 0 recovery.Store.replayed;
        check Alcotest.int "snapshot epoch" 3 recovery.Store.snapshot_epoch)

(* --------------------------- fault drills --------------------------- *)

let test_fault_fail_write () =
  with_dir (fun dir ->
      let prng = Prng.create 66L in
      let table = gen_table ~dims:1 prng in
      let index1 = Ifmh.build ~scheme:Ifmh.Multi_signature ~epoch:1 table fake_keypair in
      let store = Store.publish ~dir index1 in
      let changes = gen_changes ~dims:1 prng table 1 in
      let index2 = Ifmh.apply fake_keypair changes index1 in
      let bytes_before = Store.log_bytes store in
      Fault.arm (Store.fault store) Fault.Fail_write;
      (match Store.append store ~base:index1 (Ifmh.delta ~changes index2) with
      | () -> Alcotest.fail "append with armed fault must raise"
      | exception Serror.Error (Serror.Io_error _) -> ());
      check Alcotest.int "no bytes written" bytes_before (Store.log_bytes store);
      (* the fault is one-shot: the retry lands *)
      Store.append store ~base:index1 (Ifmh.delta ~changes index2);
      check Alcotest.int "retry appended" 1 (Store.log_frames store);
      Store.close store)

let test_fault_torn_write () =
  with_dir (fun dir ->
      let prng = Prng.create 67L in
      let table = gen_table ~dims:1 prng in
      let index1 = Ifmh.build ~scheme:Ifmh.Multi_signature ~epoch:1 table fake_keypair in
      let store = Store.publish ~dir index1 in
      let changes = gen_changes ~dims:1 prng table 1 in
      let index2 = Ifmh.apply fake_keypair changes index1 in
      Fault.arm (Store.fault store) (Fault.Torn_write 13);
      (match Store.append store ~base:index1 (Ifmh.delta ~changes index2) with
      | () -> Alcotest.fail "torn append must raise"
      | exception Serror.Error (Serror.Io_error _) -> ());
      (* the handle is now poisoned: a retried append would land AFTER
         the garbage, get acked, and then recovery would truncate the
         acked frame away with the garbage — so it must be refused *)
      (match Store.append store ~base:index1 (Ifmh.delta ~changes index2) with
      | () -> Alcotest.fail "append after torn write must be refused"
      | exception Serror.Error (Serror.Io_error _) -> ());
      check Alcotest.int "refused retry not counted" 0 (Store.log_frames store);
      Store.close store;
      (* the 13 garbage bytes are on disk; recovery truncates them and
         serves the pre-crash epoch *)
      match Store.open_dir dir with
      | Error e -> Alcotest.failf "recovery failed: %s" (Serror.to_string e)
      | Ok (store, index, recovery) ->
        check Alcotest.int "torn tail truncated" 13 recovery.Store.torn_tail_bytes;
        check Alcotest.int "pre-crash epoch served" 1 recovery.Store.final_epoch;
        check Alcotest.string "pre-crash bytes served" (hex (save_bytes index1))
          (hex (save_bytes index));
        (* recovery rescanned and truncated: the reopened log accepts
           the retry at a clean boundary, and the frame survives *)
        Store.append store ~base:index (Ifmh.delta ~changes index2);
        check Alcotest.int "retry after recovery lands" 1 (Store.log_frames store);
        Store.close store;
        match Store.open_dir dir with
        | Error e -> Alcotest.failf "re-recovery failed: %s" (Serror.to_string e)
        | Ok (store, index, recovery) ->
          Store.close store;
          check Alcotest.int "retried frame replayed" 1 recovery.Store.replayed;
          check Alcotest.int "retried epoch recovered" 2 recovery.Store.final_epoch;
          check Alcotest.string "retried bytes recovered" (hex (save_bytes index2))
            (hex (save_bytes index)))

let test_fault_bit_flip () =
  with_dir (fun dir ->
      let prng = Prng.create 68L in
      let table = gen_table ~dims:1 prng in
      let index1 = Ifmh.build ~scheme:Ifmh.Multi_signature ~epoch:1 table fake_keypair in
      let store = Store.publish ~dir index1 in
      let changes = gen_changes ~dims:1 prng table 1 in
      let index2 = Ifmh.apply fake_keypair changes index1 in
      (* flip a payload bit (frame layout: 4B len, 4B crc, payload) *)
      Fault.arm (Store.fault store) (Fault.Bit_flip (8 * 10));
      Store.append store ~base:index1 (Ifmh.delta ~changes index2);
      Store.close store;
      expect_error "Checksum_mismatch" (Store.open_dir dir |> Result.map (fun _ -> ())))

(* ----------------- durable-before-ack over the wire ----------------- *)

let await deadline_s pred =
  let deadline = Unix.gettimeofday () +. deadline_s in
  let rec go () =
    if pred () then true
    else if Unix.gettimeofday () > deadline then false
    else begin
      Thread.delay 0.01;
      go ()
    end
  in
  go ()

let test_engine_durable_before_ack () =
  with_dir (fun dir ->
      let prng = Prng.create 69L in
      let table = gen_table ~dims:1 prng in
      let index1 = Ifmh.build ~scheme:Ifmh.Multi_signature ~epoch:1 table fake_keypair in
      let store = Store.publish ~dir index1 in
      let config =
        { Engine.default_config with port = 0; store = Some store; drain_timeout = 2. }
      in
      let engine = Engine.create config index1 in
      let th = Thread.create Engine.serve engine in
      Fun.protect
        ~finally:(fun () ->
          Engine.stop engine;
          Thread.join th;
          Store.close store)
        (fun () ->
          let port = Engine.port engine in
          let changes = gen_changes ~dims:1 prng table 1 in
          let index2 = Ifmh.apply fake_keypair changes index1 in
          let delta = Ifmh.delta ~changes index2 in
          (* 1: append fails -> Refused, no ack, serving state untouched *)
          Fault.arm (Store.fault store) Fault.Fail_write;
          (match Roundtrip.call ~port (Protocol.Republish delta) with
          | Protocol.Refused m ->
            check Alcotest.bool "refusal names the store" true
              (String.length m >= 6 && String.sub m 0 6 = "Store:")
          | _ -> Alcotest.fail "expected Refused on injected write failure");
          check Alcotest.int "epoch unchanged" 1 (Ifmh.epoch (Engine.index engine));
          check Alcotest.int "no log append counted" 0
            (List.assoc "log_appends" (Engine.stats engine));
          check Alcotest.int "refusal counted" 1
            (List.assoc "replies_refused" (Engine.stats engine));
          (* 2: same delta, healthy store -> logged, swapped, acked *)
          (match Roundtrip.call ~port (Protocol.Republish delta) with
          | Protocol.Republished 2 -> ()
          | _ -> Alcotest.fail "expected Republished 2");
          check Alcotest.bool "swap visible" true
            (await 2. (fun () -> Ifmh.epoch (Engine.index engine) = 2));
          check Alcotest.int "log append counted" 1
            (List.assoc "log_appends" (Engine.stats engine));
          check Alcotest.int "frame durable" 1 (Store.log_frames store);
          (* 3: recovery from that store serves the acked bytes *)
          let served = save_bytes (Engine.index engine) in
          (match Store.open_dir dir with
          | Error e -> Alcotest.failf "recovery failed: %s" (Serror.to_string e)
          | Ok (store2, recovered, recovery) ->
            Store.close store2;
            check Alcotest.int "recovered epoch" 2 recovery.Store.final_epoch;
            check Alcotest.string "recovered = served" (hex served)
              (hex (save_bytes recovered)));
          (* 4: a torn append refuses the republish AND poisons the log,
             so the retry is refused too — it can never be acked with
             its frame sitting after garbage that recovery truncates *)
          let table2 = Update.apply_table changes table in
          let changes2 = gen_changes ~dims:1 prng table2 1 in
          let index3 = Ifmh.apply fake_keypair changes2 index2 in
          let delta2 = Ifmh.delta ~changes:changes2 index3 in
          Fault.arm (Store.fault store) (Fault.Torn_write 11);
          (match Roundtrip.call ~port (Protocol.Republish delta2) with
          | Protocol.Refused _ -> ()
          | _ -> Alcotest.fail "expected Refused on torn append");
          (match Roundtrip.call ~port (Protocol.Republish delta2) with
          | Protocol.Refused _ -> ()
          | _ -> Alcotest.fail "expected Refused from poisoned log");
          check Alcotest.int "epoch still 2" 2 (Ifmh.epoch (Engine.index engine));
          match Store.open_dir dir with
          | Error e -> Alcotest.failf "recovery failed: %s" (Serror.to_string e)
          | Ok (store3, recovered, recovery) ->
            Store.close store3;
            check Alcotest.int "garbage truncated" 11 recovery.Store.torn_tail_bytes;
            check Alcotest.int "acked epoch recovered" 2 recovery.Store.final_epoch;
            check Alcotest.string "recovered = served (post-torn)" (hex served)
              (hex (save_bytes recovered))))

let test_engine_background_compaction () =
  with_dir (fun dir ->
      let prng = Prng.create 70L in
      let table = gen_table ~dims:1 prng in
      let index1 = Ifmh.build ~scheme:Ifmh.Multi_signature ~epoch:1 table fake_keypair in
      let policy = { Store.max_log_frames = 1; max_log_bytes = max_int } in
      let store = Store.publish ~policy ~dir index1 in
      let config =
        { Engine.default_config with port = 0; store = Some store; drain_timeout = 2. }
      in
      let engine = Engine.create config index1 in
      let th = Thread.create Engine.serve engine in
      Fun.protect
        ~finally:(fun () ->
          Engine.stop engine;
          Thread.join th;
          Store.close store)
        (fun () ->
          let port = Engine.port engine in
          let changes = gen_changes ~dims:1 prng table 1 in
          let index2 = Ifmh.apply fake_keypair changes index1 in
          (match
             Roundtrip.call ~port (Protocol.Republish (Ifmh.delta ~changes index2))
           with
          | Protocol.Republished 2 -> ()
          | _ -> Alcotest.fail "expected Republished 2");
          (* the ack does not wait for the snapshot rewrite: compaction
             lands in the background shortly after and resets the log *)
          check Alcotest.bool "compaction happened" true
            (await 2. (fun () -> List.assoc "compactions" (Engine.stats engine) = 1));
          check Alcotest.bool "log reset" true
            (await 2. (fun () -> Store.log_frames store = 0));
          match Store.open_dir ~policy dir with
          | Error e -> Alcotest.failf "recovery failed: %s" (Serror.to_string e)
          | Ok (store2, recovered, recovery) ->
            Store.close store2;
            check Alcotest.int "compacted snapshot epoch" 2
              recovery.Store.snapshot_epoch;
            check Alcotest.int "no replay needed" 0 recovery.Store.replayed;
            check Alcotest.string "compacted = served" (hex (save_bytes index2))
              (hex (save_bytes recovered))))

let () =
  Alcotest.run "aqv_store"
    [
      ("crc32", [ Alcotest.test_case "vectors" `Quick test_crc32 ]);
      ( "snapshot",
        [
          Alcotest.test_case "roundtrip" `Quick test_snapshot_roundtrip;
          Alcotest.test_case "typed errors" `Quick test_snapshot_errors;
        ] );
      ("wal", [ Alcotest.test_case "roundtrip" `Quick test_wal_roundtrip ]);
      ("torn-tail", torn_tail_tests);
      ( "recovery",
        [
          Alcotest.test_case "byte-identity" `Quick test_recovery_identity;
          Alcotest.test_case "missing wal" `Quick test_recovery_missing_wal;
          Alcotest.test_case "epoch gap" `Quick test_recovery_epoch_gap;
          Alcotest.test_case "stale frames skipped" `Quick
            test_recovery_skips_stale_frames;
          Alcotest.test_case "stale frame not folded" `Quick
            test_coalesce_skips_stale_frame;
          Alcotest.test_case "mixed frames coalesce" `Quick
            test_coalesce_mixed_frames;
          Alcotest.test_case "compaction policy" `Quick test_compaction_policy;
        ] );
      ( "faults",
        [
          Alcotest.test_case "failed append" `Quick test_fault_fail_write;
          Alcotest.test_case "torn append" `Quick test_fault_torn_write;
          Alcotest.test_case "bit flip" `Quick test_fault_bit_flip;
        ] );
      ( "engine",
        [
          Alcotest.test_case "durable-before-ack" `Quick
            test_engine_durable_before_ack;
          Alcotest.test_case "background compaction" `Quick
            test_engine_background_compaction;
        ] );
    ]
