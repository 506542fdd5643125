(** Wire protocol between data users and the storage server.

    Completes the paper's three-party model as running code: the owner
    publishes a {!bundle} (template, domain, public key, epoch) out of
    band; the server answers length-prefixed framed requests; users
    verify the replies with {!Client}/{!Count} against the bundle. Used
    by [bin/aqv_net.ml], which runs the server and client as separate
    processes over TCP. This module defines the messages only; the
    framing is [Aqv_serve.Frame_io]'s. *)

(** {1 Owner's public bundle} *)

type bundle = {
  template : Aqv_db.Template.t;
  domain : Aqv_num.Domain.t;
  public : Aqv_crypto.Signer.public;
  epoch : int;
}

val bundle_of_index : Ifmh.t -> Aqv_crypto.Signer.public -> bundle
val encode_bundle : Aqv_util.Wire.writer -> bundle -> unit
val decode_bundle : Aqv_util.Wire.reader -> bundle
(** @raise Failure on malformed input. *)

val client_ctx : bundle -> Client.ctx
(** Verification context that also requires the bundle's epoch. *)

(** {1 Requests and replies} *)

type request =
  | Run_query of Query.t
  | Run_rank of { x : Aqv_num.Rational.t array; record_id : int }
  | Run_count of { x : Aqv_num.Rational.t array; l : Aqv_num.Rational.t; u : Aqv_num.Rational.t }
  | Get_stats
      (** Ask the serving runtime for its observability counters
          (request counts, latency buckets, cache hits/misses, ...). *)
  | Republish of Ifmh.delta
      (** Owner → server: replay these changes and serve the new epoch
          (the serving runtime installs it atomically via
          [Aqv_serve.Engine.swap_index]). Carries the owner's new
          signatures, never a key. *)
  | Subscribe of { from_epoch : int option }
      (** Follower → primary: turn this connection into a replication
          stream. [Some e] asks for every delta after epoch [e] (the
          follower's recovered epoch); [None] means the follower has no
          local state and needs a full {!Snapshot_frame} bootstrap.
          After the primary's [Hello], the connection is one-way: the
          primary pushes {!Delta_frame}/{!Hello} frames, the follower
          only reads. *)

type reply =
  | Answer of Server.response
  | Rank_answer of Server.response option
  | Count_answer of Count.response
  | Refused of string
  | Stats of (string * int) list
      (** Flat counter snapshot; keys are stable strings such as
          ["req_query"] or ["latency_us_le_256"]. *)
  | Republished of int  (** the epoch now being served *)
  | Hello of { epoch : int }
      (** Subscription accepted / heartbeat: the primary's current
          epoch. Sent first on every accepted [Subscribe], then
          periodically so a follower can detect a dead primary (read
          timeout) and observe its own lag without a query. *)
  | Delta_frame of { base_epoch : int; delta : Ifmh.delta }
      (** One durably-acked republish, shipped in WAL order strictly
          after the primary's fsync (durable-before-ship). [base_epoch]
          is the epoch the delta applies to, exactly as recorded in the
          primary's log — a follower at a different epoch must not
          replay it. *)
  | Snapshot_frame of { index : string }
      (** Full-state bootstrap: the primary's current index as
          {!Ifmh.save} bytes (signatures included, never a key). Sent
          when the follower's [from_epoch] predates the primary's
          retained delta backlog. *)

val encode_request : Aqv_util.Wire.writer -> request -> unit
val decode_request : Aqv_util.Wire.reader -> request
val encode_reply : Aqv_util.Wire.writer -> reply -> unit
val decode_reply : Aqv_util.Wire.reader -> reply
(** @raise Failure on malformed input. *)

val handle : Ifmh.t -> request -> reply
(** Server-side dispatch of the query requests. Never raises: bad
    inputs come back as [Refused]. [Get_stats], [Republish] and
    [Subscribe] are always [Refused] here: counters, mutation and the
    replication handoff belong to the serving engine. *)
