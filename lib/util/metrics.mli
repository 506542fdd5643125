(** Cost counters: the one counter registry.

    The paper's simulation reports costs as operation counts (nodes or
    cells traversed, hash operations, signature operations) as well as
    wall-clock time. Library code increments these counters at the point
    where the corresponding work happens; benchmarks snapshot them around
    a measured region.

    Every counter lives in a {e scope}: an instance of a closed, ordered
    list of {!keys}, with one stable name and one [Atomic.t] cell per
    key. The library's own counters below are the process-wide global
    scope; each serving engine owns one more scope for its request,
    cache and replication counters.

    Cells are [Atomic.t]: the owner-side construction pipeline fans
    work out over {!Aqv_par.Pool} domains, and the ticks issued from
    worker domains must not be lost — a parallel build performs exactly
    the same operations as a sequential one, so its totals must match
    exactly. A read takes each cell atomically but not the set of cells
    as a whole; take snapshots at quiescent points (benchmarks already
    do). *)

(** {1 Scopes} *)

type keys
(** A closed, ordered list of counter names: the shape of a scope. *)

type key
(** One name of a {!keys} list, resolved once so ticks never search. *)

type scope
(** One instance of a {!keys} list: one cell per key, all starting at 0. *)

val keys : string list -> keys
(** @raise Invalid_argument on a duplicate name. *)

val key : keys -> string -> key
(** @raise Invalid_argument if the name is not in the list. *)

val scope : keys -> scope

val incr : scope -> key -> unit
val add : scope -> key -> int -> unit
(** Tick a key's cell. Both raise [Invalid_argument] if the key belongs
    to another {!keys} list. *)

val to_assoc : scope -> (string * int) list
(** Every key with its current value, in list order. *)

(** {1 The global scope} *)

type snapshot = {
  hash_ops : int;  (** one-way hash compressions requested *)
  hash_bytes : int;  (** bytes fed to the hash function *)
  sign_ops : int;  (** private-key signature creations *)
  verify_ops : int;  (** public-key signature verifications *)
  itree_nodes : int;  (** IMH-tree nodes visited *)
  fmh_nodes : int;  (** FMH-tree nodes visited *)
  mesh_cells : int;  (** signature-mesh cells scanned *)
  bytes_out : int;  (** serialized bytes produced (VO / index) *)
  memo_pair_hits : int;
      (** pair-geometry results carried over from the previous index
          during a rebuild (see [Aqv.Memo]) *)
  memo_pair_misses : int;  (** pair-geometry results computed fresh *)
  memo_fmh_hits : int;
      (** subdomain FMH-trees reused (possibly patched) from the
          previous index during a rebuild *)
  memo_fmh_misses : int;  (** subdomain FMH-trees hashed from scratch *)
  locate_sign_tests : int;
      (** exact-rational sign tests spent locating the subdomain of a
          query point: one per I-tree descent step, one per mesh
          boundary comparison (binary search and linear scan alike) —
          the counter behind the O(S) vs O(log S) point-location
          figures and the CI sub-linearity guard *)
  frag_hits : int;
      (** VO fragments served from the content-addressed fragment
          cache (see [Aqv.Fragment]) instead of being reassembled *)
  frag_misses : int;  (** VO fragments assembled from the index *)
  build_pairs_classified : int;
      (** function pairs classified against the domain box by the
          streaming crossing enumerator (see [Aqv.Crossings]): exactly
          n(n-1)/2 per structure build, regardless of chunking or pool
          size *)
  build_pair_chunks : int;
      (** bounded chunks the enumerator processed — the pair index
          space is never materialized wholesale *)
  build_peak_pairs : int;
      (** high-water mark of pair records live at once in the
          enumerator: at most (retained crossings) + (one chunk) — the
          O(#crossings + chunk) memory bound, as a deterministic
          counter. A mark, not a flow: [diff] reports the later
          snapshot's value *)
  build_crossings : int;
      (** pairs retained because their hyperplane properly crosses the
          domain box — the only pairs the I-tree insertion and the 1-D
          sweep ever see *)
}

val reset : unit -> unit
(** Zero every counter of the global scope. *)

val snapshot : unit -> snapshot
(** Current values of the global scope. *)

val diff : snapshot -> snapshot -> snapshot
(** [diff later earlier] is the per-field difference. *)

val pp : Format.formatter -> snapshot -> unit

(** Incrementors, called by library code. *)

val add_hash : bytes_len:int -> unit
val add_sign : unit -> unit
val add_verify : unit -> unit
val add_itree_nodes : int -> unit
val add_fmh_nodes : int -> unit
val add_mesh_cells : int -> unit
val add_bytes_out : int -> unit
val add_memo_pair_hit : unit -> unit
val add_memo_pair_miss : unit -> unit
val add_memo_fmh_hit : unit -> unit
val add_memo_fmh_miss : unit -> unit
val add_locate_sign_tests : int -> unit
val add_frag_hit : unit -> unit
val add_frag_miss : unit -> unit
val add_build_pairs_classified : int -> unit
val add_build_pair_chunks : int -> unit
val add_build_crossings : int -> unit

val note_build_peak_pairs : int -> unit
(** Raise the [build_peak_pairs] high-water mark to [v] if above it. *)

val total_node_visits : snapshot -> int
(** [itree_nodes + fmh_nodes + mesh_cells]: the paper's "server cost". *)
