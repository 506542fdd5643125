(* The benchmark's workloads and their inputs.

   Everything a run sends — the table, the owner's key, the hot set,
   every request's bytes and every owner change — is a pure function
   of (workload, seed): each consumer draws from its own Prng stream
   derived from the seed, never from the clock or the scheduler.
   [digest] commits to all of it, so two runs that print the same
   digest sent the same bytes. *)

module Q = Aqv_num.Rational
module Prng = Aqv_util.Prng
module Wire = Aqv_util.Wire
module Table = Aqv_db.Table
module Record = Aqv_db.Record
module Workload = Aqv_db.Workload
module Signer = Aqv_crypto.Signer
open Aqv

type popularity =
  | Hot of { points : int; theta : float }
      (** zipf over a fixed set of weight points, each with a fixed menu
          of requests, so byte-identical requests recur *)
  | Uniform  (** a fresh weight point for every request *)

type t = {
  name : string;
  why : string;
  n : int;  (** records *)
  intercept_range : int;
  crossings : int;
      (** the table's crossing-pair count, within 1%: build, update and
          recovery costs follow it, so every seed draws a table of the
          same size *)
  scheme : Ifmh.scheme;
  rate : float;  (** open-loop reads per second *)
  popularity : popularity;
  mix : float * float;  (** top-k and range shares; KNN takes the rest *)
  k_max : int;  (** top-k / KNN k and range result size, 1..k_max *)
  open_share : float;
      (** the share of each round's reading time given to the open loop;
          the capacity phase has the rest. Larger on read-cold, whose
          capacity replies are all distinct and each verified, and on
          write-mix, so that the reads that queue behind each swap stay
          well under half of the open loop and off its median *)
  republish_during_reads : bool;
      (** each round's one-record republish is sent halfway through the
          round's open-loop reads; otherwise before them, followed by a
          warm-up *)
}

(* Sizes are held to what a 2-core box finishes in about forty seconds
   per run: five set-ups, sixteen rounds of owner update, republish and
   reads, and five restarts. Timings on such a box vary by a fifth from
   one repetition to the next, so many cheap repetitions beat a few
   large ones. The crossing targets are the mean counts of lines_1d
   tables of these sizes. *)
let all =
  [
    {
      name = "read-hot";
      why =
        "repeated requests over a zipf hot set: the response and fragment \
         caches absorb answering; client verify and the socket path dominate";
      n = 100;
      intercept_range = 1000;
      crossings = 1730;
      scheme = Ifmh.Multi_signature;
      rate = 400.;
      popularity = Hot { points = 32; theta = 0.99 };
      mix = (0.5, 0.3);
      k_max = 8;
      open_share = 0.6;
      republish_during_reads = false;
    };
    {
      name = "read-cold";
      why =
        "a fresh weight point per request over a sparse one-signature table: \
         bypasses the response cache, so locate and VO assembly do the work";
      n = 1000;
      intercept_range = 1_000_000;
      crossings = 334;
      scheme = Ifmh.One_signature;
      rate = 400.;
      popularity = Uniform;
      mix = (0.4, 0.4);
      k_max = 16;
      open_share = 0.75;
      republish_during_reads = false;
    };
    {
      name = "write-mix";
      why =
        "hot-set reads while the owner republishes a one-record change in the \
         middle of each read round: reads queue behind apply_delta, each swap voids the cache";
      n = 100;
      intercept_range = 1000;
      crossings = 1730;
      scheme = Ifmh.Multi_signature;
      rate = 200.;
      popularity = Hot { points = 32; theta = 0.99 };
      mix = (0.5, 0.3);
      k_max = 8;
      open_share = 0.8;
      republish_during_reads = true;
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) all

(* Enough requests for the longest open loop plus the capacity phase;
   the capacity phase wraps around if it outruns them. *)
let request_count = 16384

(* Owner changes generated per run, whatever --seconds is: a longer run
   uses a longer prefix of the same list. *)
let change_count = 32

(* Weight points: a large prime denominator, so points almost never hit
   a crossing exactly and a uniform draw almost never repeats. *)
let denominator = 1_000_003

type inputs = {
  table : Table.t;
  keypair : Signer.keypair;
  hot : Q.t array array;  (** empty for [Uniform] *)
  queries : Query.t array;
  payloads : string array;  (** [Protocol.Run_query] request bytes *)
  changes : Update.change list array;  (** one Modify each, in order *)
  digest : string;  (** hex SHA-256 over all of the above *)
}

(* Independent stream per role: adding draws to one role never shifts
   another. *)
let stream ~seed role = Prng.create (Int64.of_int ((seed * 7919) + role))

let point rng = [| Q.of_ints (Prng.int_in rng 1 (denominator - 1)) denominator |]

(* Query boundaries strictly between neighbouring scores, so the range
   holds exactly [size] records starting at sorted position [start]. *)
let window_bounds sorted ~start ~size =
  let n = Array.length sorted in
  let score i = snd sorted.(i) in
  let lo = score start and hi = score (start + size - 1) in
  let l =
    if start = 0 then Q.sub lo Q.one
    else if Q.equal (score (start - 1)) lo then lo
    else Q.average (score (start - 1)) lo
  in
  let u =
    if start + size = n then Q.add hi Q.one
    else if Q.equal (score (start + size)) hi then hi
    else Q.average hi (score (start + size))
  in
  (l, u)

(* A hot point's menu: every top-k, range and KNN request it can ever
   send — k_max of each — so requests to it repeat byte for byte. *)
let menu w table rng x =
  let sorted = Workload.scores_at table x in
  let n = Array.length sorted in
  let topk = Array.init w.k_max (fun i -> Query.top_k ~x ~k:(i + 1)) in
  let range =
    Array.init w.k_max (fun i ->
        let size = i + 1 in
        let l, u = window_bounds sorted ~start:(Prng.int rng (n - size + 1)) ~size in
        Query.range ~x ~l ~u)
  in
  let knn =
    Array.init w.k_max (fun i ->
        Query.knn ~x ~k:(i + 1) ~y:(snd sorted.(Prng.int rng n)))
  in
  (topk, range, knn)

let pick_kind w rng =
  let topk, range = w.mix in
  let u = Prng.float rng 1. in
  if u < topk then `Topk else if u < topk +. range then `Range else `Knn

(* A uniform request: ranges and KNN targets drawn over the intercept
   span, where the scores lie, with the range width set for an expected
   [size] results. *)
let uniform_query w rng =
  let x = point rng in
  let span = w.intercept_range in
  match pick_kind w rng with
  | `Topk -> Query.top_k ~x ~k:(1 + Prng.int rng w.k_max)
  | `Range ->
    let size = 1 + Prng.int rng w.k_max in
    let l = Prng.int_in rng 0 span in
    Query.range ~x ~l:(Q.of_int l) ~u:(Q.of_int (l + max 1 (size * span / w.n)))
  | `Knn ->
    Query.knn ~x ~k:(1 + Prng.int rng w.k_max) ~y:(Q.of_int (Prng.int_in rng 0 span))

(* Lines as integer (slope, intercept) pairs, by table position. *)
let lines table =
  Array.map
    (fun r ->
      let a = Record.attrs r in
      (int_of_string (Q.to_string a.(0)), int_of_string (Q.to_string a.(1))))
    (Table.records table)

(* Whether two lines a x + b cross strictly inside x in (0, 1): their
   difference changes sign between its values at 0 and 1. *)
let crosses (a1, b1) (a2, b2) =
  let d0 = b1 - b2 and d1 = a1 + b1 - a2 - b2 in
  (d0 < 0 && d1 > 0) || (d0 > 0 && d1 < 0)

let crossing_count table =
  let ab = lines table in
  let c = ref 0 in
  Array.iteri
    (fun i l ->
      for j = i + 1 to Array.length ab - 1 do
        if crosses l ab.(j) then incr c
      done)
    ab;
  !c

let near_target w count = abs (count - w.crossings) * 100 <= w.crossings

(* The first lines_1d table of the seed's stream whose crossing count is
   within 1% of the workload's target. *)
let table w rng =
  let rec draw tries =
    if tries = 0 then failwith (w.name ^ ": no table near the crossing target");
    let t = Workload.lines_1d ~intercept_range:w.intercept_range ~n:w.n rng in
    if near_target w (crossing_count t) then t else draw (tries - 1)
  in
  draw 1000

(* One-record Modifies, chained: each moves a random record to a fresh
   line no other record has, drawn so that the table's crossing count
   stays within 1% of the target — update and recovery costs follow it
   as build costs do. *)
let gen_changes w table rng =
  let ab = lines table in
  let records = Array.copy (Table.records table) in
  let taken = Hashtbl.create w.n in
  Array.iter (fun l -> Hashtbl.replace taken l ()) ab;
  let count = ref (crossing_count table) in
  let crossings_of pos l =
    let c = ref 0 in
    Array.iteri (fun j l' -> if j <> pos && crosses l l' then incr c) ab;
    !c
  in
  Array.init change_count (fun _ ->
      let pos = Prng.int rng w.n in
      let without = !count - crossings_of pos ab.(pos) in
      let rec fresh tries =
        if tries = 0 then failwith (w.name ^ ": no change near the crossing target");
        let l = (Prng.int_in rng (-1000) 1000, Prng.int_in rng 0 w.intercept_range) in
        if Hashtbl.mem taken l || not (near_target w (without + crossings_of pos l)) then
          fresh (tries - 1)
        else l
      in
      let ((a, b) as l) = fresh 10_000 in
      Hashtbl.remove taken ab.(pos);
      Hashtbl.replace taken l ();
      ab.(pos) <- l;
      count := without + crossings_of pos l;
      let old = records.(pos) in
      let r =
        Record.make ~id:(Record.id old) ~attrs:[| Q.of_int a; Q.of_int b |]
          ~payload:(Record.payload old) ()
      in
      records.(pos) <- r;
      [ Update.Modify r ])

let encode_request q =
  let wr = Wire.writer () in
  Protocol.encode_request wr (Protocol.Run_query q);
  Wire.contents wr

let inputs w ~seed =
  let table = table w (stream ~seed 1) in
  let keypair = Signer.generate ~bits:512 Signer.Rsa (stream ~seed 2) in
  let rng = stream ~seed 3 in
  let hot, queries =
    match w.popularity with
    | Uniform -> ([||], Array.init request_count (fun _ -> uniform_query w rng))
    | Hot { points; theta } ->
      let hot = Array.init points (fun _ -> point rng) in
      let menus = Array.map (menu w table rng) hot in
      let zipf = Workload.Zipf.create ~n:points ~theta in
      let queries =
        Array.init request_count (fun _ ->
            let topk, range, knn = menus.(Workload.Zipf.sample zipf rng) in
            let options =
              match pick_kind w rng with `Topk -> topk | `Range -> range | `Knn -> knn
            in
            options.(Prng.int rng w.k_max))
      in
      (hot, queries)
  in
  let payloads = Array.map encode_request queries in
  let changes = gen_changes w table (stream ~seed 4) in
  let wr = Wire.writer () in
  Array.iter (Record.encode wr) (Table.records table);
  Signer.encode_public wr keypair.Signer.public;
  Array.iter (Array.iter (Q.encode wr)) hot;
  Array.iter (Wire.bytes wr) payloads;
  Array.iter (List.iter (Update.encode_change wr)) changes;
  let digest = Aqv_crypto.Sha256.hex (Aqv_crypto.Sha256.digest (Wire.contents wr)) in
  { table; keypair; hot; queries; payloads; changes; digest }
