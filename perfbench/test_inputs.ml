(* The benchmark's inputs are a pure function of (workload, seed): the
   same seed gives the same digest and the same reply bytes, another
   seed gives another digest. *)

open Perfbench
module Wire = Aqv_util.Wire
open Aqv

let check name ok =
  Printf.printf "%s %s\n%!" (if ok then "ok  " else "FAIL") name;
  if not ok then exit 1

(* Mean reply frame size over the first [count] requests, answered the
   way the engine answers them (dispatch, then encode). *)
let reply_bytes_per_query w ~seed ~count =
  let inp = Workloads.inputs w ~seed in
  let index = Ifmh.build ~scheme:w.Workloads.scheme inp.Workloads.table inp.Workloads.keypair in
  let total = ref 0 in
  for i = 0 to count - 1 do
    let request = Protocol.decode_request (Wire.reader inp.Workloads.payloads.(i)) in
    let wr = Wire.writer () in
    Protocol.encode_reply wr (Protocol.handle index request);
    total := !total + Wire.size wr + 4
  done;
  float_of_int !total /. float_of_int count

let () =
  List.iter
    (fun w ->
      let digest seed = (Workloads.inputs w ~seed).Workloads.digest in
      let name = w.Workloads.name in
      check (name ^ ": same seed, same digest") (digest 1 = digest 1);
      check (name ^ ": other seed, other digest") (digest 1 <> digest 2))
    Workloads.all;
  let w = Option.get (Workloads.find "read-hot") in
  check "read-hot: same seed, same reply bytes per query"
    (reply_bytes_per_query w ~seed:1 ~count:500 = reply_bytes_per_query w ~seed:1 ~count:500)
