type snapshot = {
  hash_ops : int;
  hash_bytes : int;
  sign_ops : int;
  verify_ops : int;
  itree_nodes : int;
  fmh_nodes : int;
  mesh_cells : int;
  bytes_out : int;
  memo_pair_hits : int;
  memo_pair_misses : int;
  memo_fmh_hits : int;
  memo_fmh_misses : int;
  locate_sign_tests : int;
  frag_hits : int;
  frag_misses : int;
  build_pairs_classified : int;
  build_pair_chunks : int;
  build_peak_pairs : int;
  build_crossings : int;
}

type keys = string array
type key = { owner : keys; index : int }
type scope = { shape : keys; cells : int Atomic.t array }

let keys names =
  if List.length (List.sort_uniq String.compare names) <> List.length names then
    invalid_arg "Metrics.keys: duplicate name";
  Array.of_list names

let key owner name =
  match Array.find_index (String.equal name) owner with
  | Some index -> { owner; index }
  | None -> invalid_arg ("Metrics.key: no counter named " ^ name)

(* Atomic, not plain refs: library code ticks these from whatever domain
   happens to run it (the construction pipeline fans out over
   Aqv_par.Pool workers), and lost increments would make parallel builds
   report different op counts than sequential ones. *)
let scope shape = { shape; cells = Array.map (fun _ -> Atomic.make 0) shape }

let cell s k =
  if k.owner != s.shape then invalid_arg "Metrics: key of another scope";
  s.cells.(k.index)

let add_cell c v = ignore (Atomic.fetch_and_add c v : int)
let incr s k = Atomic.incr (cell s k)
let add s k v = add_cell (cell s k) v
let to_assoc s = Array.to_list (Array.map2 (fun n c -> (n, Atomic.get c)) s.shape s.cells)

let global_keys =
  keys
    [
      "hash_ops"; "hash_bytes"; "sign_ops"; "verify_ops"; "itree_nodes"; "fmh_nodes";
      "mesh_cells"; "bytes_out"; "memo_pair_hits"; "memo_pair_misses"; "memo_fmh_hits";
      "memo_fmh_misses"; "locate_sign_tests"; "frag_hits"; "frag_misses";
      "build_pairs_classified"; "build_pair_chunks"; "build_peak_pairs"; "build_crossings";
    ]

let global = scope global_keys
let counter name = cell global (key global_keys name)
let hash_ops = counter "hash_ops"
let hash_bytes = counter "hash_bytes"
let sign_ops = counter "sign_ops"
let verify_ops = counter "verify_ops"
let itree_nodes = counter "itree_nodes"
let fmh_nodes = counter "fmh_nodes"
let mesh_cells = counter "mesh_cells"
let bytes_out = counter "bytes_out"
let memo_pair_hits = counter "memo_pair_hits"
let memo_pair_misses = counter "memo_pair_misses"
let memo_fmh_hits = counter "memo_fmh_hits"
let memo_fmh_misses = counter "memo_fmh_misses"
let locate_sign_tests = counter "locate_sign_tests"
let frag_hits = counter "frag_hits"
let frag_misses = counter "frag_misses"
let build_pairs_classified = counter "build_pairs_classified"
let build_pair_chunks = counter "build_pair_chunks"
let build_peak_pairs = counter "build_peak_pairs"
let build_crossings = counter "build_crossings"
let reset () = Array.iter (fun c -> Atomic.set c 0) global.cells

let snapshot () =
  {
    hash_ops = Atomic.get hash_ops;
    hash_bytes = Atomic.get hash_bytes;
    sign_ops = Atomic.get sign_ops;
    verify_ops = Atomic.get verify_ops;
    itree_nodes = Atomic.get itree_nodes;
    fmh_nodes = Atomic.get fmh_nodes;
    mesh_cells = Atomic.get mesh_cells;
    bytes_out = Atomic.get bytes_out;
    memo_pair_hits = Atomic.get memo_pair_hits;
    memo_pair_misses = Atomic.get memo_pair_misses;
    memo_fmh_hits = Atomic.get memo_fmh_hits;
    memo_fmh_misses = Atomic.get memo_fmh_misses;
    locate_sign_tests = Atomic.get locate_sign_tests;
    frag_hits = Atomic.get frag_hits;
    frag_misses = Atomic.get frag_misses;
    build_pairs_classified = Atomic.get build_pairs_classified;
    build_pair_chunks = Atomic.get build_pair_chunks;
    build_peak_pairs = Atomic.get build_peak_pairs;
    build_crossings = Atomic.get build_crossings;
  }

let diff a b =
  {
    hash_ops = a.hash_ops - b.hash_ops;
    hash_bytes = a.hash_bytes - b.hash_bytes;
    sign_ops = a.sign_ops - b.sign_ops;
    verify_ops = a.verify_ops - b.verify_ops;
    itree_nodes = a.itree_nodes - b.itree_nodes;
    fmh_nodes = a.fmh_nodes - b.fmh_nodes;
    mesh_cells = a.mesh_cells - b.mesh_cells;
    bytes_out = a.bytes_out - b.bytes_out;
    memo_pair_hits = a.memo_pair_hits - b.memo_pair_hits;
    memo_pair_misses = a.memo_pair_misses - b.memo_pair_misses;
    memo_fmh_hits = a.memo_fmh_hits - b.memo_fmh_hits;
    memo_fmh_misses = a.memo_fmh_misses - b.memo_fmh_misses;
    locate_sign_tests = a.locate_sign_tests - b.locate_sign_tests;
    frag_hits = a.frag_hits - b.frag_hits;
    frag_misses = a.frag_misses - b.frag_misses;
    build_pairs_classified = a.build_pairs_classified - b.build_pairs_classified;
    build_pair_chunks = a.build_pair_chunks - b.build_pair_chunks;
    (* a peak is a high-water mark, not a flow: report the later
       snapshot's mark (benches reset before measuring, so the earlier
       one is 0 there anyway) *)
    build_peak_pairs = a.build_peak_pairs;
    build_crossings = a.build_crossings - b.build_crossings;
  }

let pp ppf s =
  Format.fprintf ppf
    "@[<v>hash_ops=%d hash_bytes=%d@ sign_ops=%d verify_ops=%d@ \
     itree_nodes=%d fmh_nodes=%d mesh_cells=%d locate_tests=%d@ \
     bytes_out=%d@ memo_pairs=%d/%d memo_fmh=%d/%d frags=%d/%d@ \
     build_pairs=%d chunks=%d peak=%d crossings=%d@]"
    s.hash_ops s.hash_bytes s.sign_ops s.verify_ops s.itree_nodes
    s.fmh_nodes s.mesh_cells s.locate_sign_tests s.bytes_out s.memo_pair_hits
    (s.memo_pair_hits + s.memo_pair_misses)
    s.memo_fmh_hits
    (s.memo_fmh_hits + s.memo_fmh_misses)
    s.frag_hits
    (s.frag_hits + s.frag_misses)
    s.build_pairs_classified s.build_pair_chunks s.build_peak_pairs s.build_crossings

let add_hash ~bytes_len =
  Atomic.incr hash_ops;
  add_cell hash_bytes bytes_len

let add_sign () = Atomic.incr sign_ops
let add_verify () = Atomic.incr verify_ops
let add_itree_nodes n = add_cell itree_nodes n
let add_fmh_nodes n = add_cell fmh_nodes n
let add_mesh_cells n = add_cell mesh_cells n
let add_bytes_out n = add_cell bytes_out n
let add_memo_pair_hit () = Atomic.incr memo_pair_hits
let add_memo_pair_miss () = Atomic.incr memo_pair_misses
let add_memo_fmh_hit () = Atomic.incr memo_fmh_hits
let add_memo_fmh_miss () = Atomic.incr memo_fmh_misses
let add_locate_sign_tests n = add_cell locate_sign_tests n
let add_frag_hit () = Atomic.incr frag_hits
let add_frag_miss () = Atomic.incr frag_misses
let add_build_pairs_classified n = add_cell build_pairs_classified n
let add_build_pair_chunks n = add_cell build_pair_chunks n
let add_build_crossings n = add_cell build_crossings n

(* high-water mark: keep the maximum ever observed since the last
   reset. CAS loop only for safety — the enumerator updates it from the
   sequential path, so contention is nil. *)
let note_build_peak_pairs v =
  let rec go () =
    let cur = Atomic.get build_peak_pairs in
    if v > cur && not (Atomic.compare_and_set build_peak_pairs cur v) then go ()
  in
  go ()

let total_node_visits s = s.itree_nodes + s.fmh_nodes + s.mesh_cells
