module Q = Aqv_num.Rational
module W = Aqv_util.Wire
module Signer = Aqv_crypto.Signer

type bundle = {
  template : Aqv_db.Template.t;
  domain : Aqv_num.Domain.t;
  public : Signer.public;
  epoch : int;
}

let bundle_of_index index public =
  {
    template = Aqv_db.Table.template (Ifmh.table index);
    domain = Aqv_db.Table.domain (Ifmh.table index);
    public;
    epoch = Ifmh.epoch index;
  }

let encode_bundle w b =
  Aqv_db.Template.encode w b.template;
  Aqv_num.Domain.encode w b.domain;
  Signer.encode_public w b.public;
  W.varint w b.epoch

let decode_bundle r =
  let template = Aqv_db.Template.decode r in
  let domain = Aqv_num.Domain.decode r in
  let public = Signer.decode_public r in
  let epoch = W.read_varint r in
  { template; domain; public; epoch }

let client_ctx b =
  Client.with_min_epoch
    (Client.make_ctx ~template:b.template ~domain:b.domain
       ~verify_signature:(Signer.verifier b.public))
    b.epoch

type request =
  | Run_query of Query.t
  | Run_rank of { x : Q.t array; record_id : int }
  | Run_count of { x : Q.t array; l : Q.t; u : Q.t }
  | Get_stats
  | Republish of Ifmh.delta
  | Subscribe of { from_epoch : int option }

type reply =
  | Answer of Server.response
  | Rank_answer of Server.response option
  | Count_answer of Count.response
  | Refused of string
  | Stats of (string * int) list
  | Republished of int
  | Hello of { epoch : int }
  | Delta_frame of { base_epoch : int; delta : Ifmh.delta }
  | Snapshot_frame of { index : string }

let encode_x w x =
  W.varint w (Array.length x);
  Array.iter (Q.encode w) x

let decode_x r =
  let d = W.read_varint r in
  Array.init d (fun _ -> Q.decode r)

let encode_request w = function
  | Run_query q ->
    W.u8 w 0;
    Query.encode w q
  | Run_rank { x; record_id } ->
    W.u8 w 1;
    encode_x w x;
    W.varint w record_id
  | Run_count { x; l; u } ->
    W.u8 w 2;
    encode_x w x;
    Q.encode w l;
    Q.encode w u
  | Get_stats -> W.u8 w 3
  | Republish delta ->
    W.u8 w 4;
    Ifmh.encode_delta w delta
  | Subscribe { from_epoch } -> (
    W.u8 w 5;
    match from_epoch with
    | None -> W.u8 w 0
    | Some e ->
      W.u8 w 1;
      W.varint w e)

let decode_request r =
  match W.read_u8 r with
  | 0 -> Run_query (Query.decode r)
  | 1 ->
    let x = decode_x r in
    let record_id = W.read_varint r in
    Run_rank { x; record_id }
  | 2 ->
    let x = decode_x r in
    let l = Q.decode r in
    let u = Q.decode r in
    Run_count { x; l; u }
  | 3 -> Get_stats
  | 4 -> Republish (Ifmh.decode_delta r)
  | 5 ->
    let from_epoch =
      match W.read_u8 r with
      | 0 -> None
      | 1 -> Some (W.read_varint r)
      | _ -> failwith "Protocol: bad Subscribe flag"
    in
    Subscribe { from_epoch }
  | _ -> failwith "Protocol: bad request tag"

let encode_reply w = function
  | Answer resp ->
    W.u8 w 0;
    Server.encode_response w resp
  | Rank_answer None -> W.u8 w 1
  | Rank_answer (Some resp) ->
    W.u8 w 2;
    Server.encode_response w resp
  | Count_answer resp ->
    W.u8 w 3;
    Count.encode w resp
  | Refused msg ->
    W.u8 w 4;
    W.bytes w msg
  | Stats kvs ->
    W.u8 w 5;
    W.list w
      (fun (k, v) ->
        W.bytes w k;
        W.int w v)
      kvs
  | Republished epoch ->
    W.u8 w 6;
    W.varint w epoch
  | Hello { epoch } ->
    W.u8 w 7;
    W.varint w epoch
  | Delta_frame { base_epoch; delta } ->
    W.u8 w 8;
    W.varint w base_epoch;
    Ifmh.encode_delta w delta
  | Snapshot_frame { index } ->
    W.u8 w 9;
    W.bytes w index

let decode_reply r =
  match W.read_u8 r with
  | 0 -> Answer (Server.decode_response r)
  | 1 -> Rank_answer None
  | 2 -> Rank_answer (Some (Server.decode_response r))
  | 3 -> Count_answer (Count.decode r)
  | 4 -> Refused (W.read_bytes r)
  | 5 ->
    Stats
      (W.read_list r (fun r ->
           let k = W.read_bytes r in
           let v = W.read_int r in
           (k, v)))
  | 6 -> Republished (W.read_varint r)
  | 7 -> Hello { epoch = W.read_varint r }
  | 8 ->
    let base_epoch = W.read_varint r in
    let delta = Ifmh.decode_delta r in
    Delta_frame { base_epoch; delta }
  | 9 -> Snapshot_frame { index = W.read_bytes r }
  | _ -> failwith "Protocol: bad reply tag"

let handle index request =
  match
    match request with
    | Run_query q -> Answer (Server.answer index q)
    | Run_rank { x; record_id } -> Rank_answer (Server.rank index ~x ~record_id)
    | Run_count { x; l; u } -> Count_answer (Count.answer index ~x ~l ~u)
    (* counters, mutation and replication belong to the serving engine *)
    | Get_stats -> Refused "Protocol: stats not available"
    | Republish _ -> Refused "Protocol: republish not available"
    | Subscribe _ -> Refused "Protocol: replication not available"
  with
  | reply -> reply
  | exception Invalid_argument msg -> Refused msg
  | exception Failure msg -> Refused msg
