(* Order statistics over measured samples. *)

let sorted a =
  let a = Array.of_list (List.filter (fun x -> not (Float.is_nan x)) (Array.to_list a)) in
  Array.sort Float.compare a;
  a

(* Nearest-rank percentile, [p] in (0, 1]. *)
let percentile p a =
  let s = sorted a in
  let n = Array.length s in
  if n = 0 then Float.nan
  else s.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

(* Median, the mean of the middle two for an even count. *)
let median a =
  let s = sorted a in
  let n = Array.length s in
  if n = 0 then Float.nan
  else if n land 1 = 1 then s.(n / 2)
  else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.

let mean a =
  let s = sorted a in
  if Array.length s = 0 then Float.nan
  else Array.fold_left ( +. ) 0. s /. float_of_int (Array.length s)

let max a = Array.fold_left Float.max Float.neg_infinity (sorted a)

(* First and third quartiles as Python's [statistics.quantiles(v, n=4)]
   computes them (the default "exclusive" method). *)
let quartiles a =
  let s = sorted a in
  let n = Array.length s in
  if n < 2 then (median a, median a)
  else
    let q i =
      let m = n + 1 in
      let j = Stdlib.max 1 (Stdlib.min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((s.(j - 1) *. float_of_int (4 - delta)) +. (s.(j) *. float_of_int delta)) /. 4.
    in
    (q 1, q 3)
