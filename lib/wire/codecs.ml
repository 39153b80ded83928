open Tr_sim

let make_codec ~name ~key ~version encode_msg decode_msg : _ Codec.t =
  { Codec.name; key; version; encode_msg; decode_msg }

let bad_tag codec tag =
  Error (Buf.Malformed (Printf.sprintf "%s: unknown message tag %#x" codec tag))

open Buf.Dec

(* ---------------- ring ---------------- *)

let ring =
  let open Tr_proto.Ring in
  make_codec ~name:"ring" ~key:1 ~version:1
    (fun b (Token { stamp }) ->
      Buf.Enc.byte b 0;
      Buf.Enc.int b stamp)
    (* Match chains, not [let*]: the bind closure would allocate on
       every token hop, and this is the loopback benchmark's message. *)
    (fun d ->
      match byte_exn d with
      | 0 -> (
          match int d with
          | Ok stamp -> Ok (Token { stamp })
          | Error _ as e -> e)
      | t -> bad_tag "ring" t
      | exception Failed e -> Error e)

(* ---------------- tree ---------------- *)

let tree =
  let open Tr_proto.Tree in
  make_codec ~name:"tree" ~key:2 ~version:1
    (fun b msg ->
      match msg with Token -> Buf.Enc.byte b 0 | Request -> Buf.Enc.byte b 1)
    (fun d ->
      let* tag = byte d in
      match tag with
      | 0 -> Ok Token
      | 1 -> Ok Request
      | t -> bad_tag "tree" t)

(* ---------------- suzuki-kasami ---------------- *)

let suzuki_kasami =
  let open Tr_proto.Suzuki_kasami in
  make_codec ~name:"suzuki-kasami" ~key:3 ~version:1
    (fun b msg ->
      match msg with
      | Request { requester; seq } ->
          Buf.Enc.byte b 0;
          Buf.Enc.int b requester;
          Buf.Enc.int b seq
      | Token { ln; queue } ->
          Buf.Enc.byte b 1;
          Buf.Enc.int_array b ln;
          Buf.Enc.list Buf.Enc.int b queue)
    (fun d ->
      let* tag = byte d in
      match tag with
      | 0 ->
          let* requester = int d in
          let* seq = int d in
          Ok (Request { requester; seq })
      | 1 ->
          let* ln = int_array d in
          let* queue = list int d in
          Ok (Token { ln; queue })
      | t -> bad_tag "suzuki-kasami" t)

(* ---------------- seq-search ---------------- *)

let seq_search =
  let open Tr_proto.Seq_search in
  make_codec ~name:"seq-search" ~key:4 ~version:1
    (fun b msg ->
      match msg with
      | Token { stamp } ->
          Buf.Enc.byte b 0;
          Buf.Enc.int b stamp
      | Loan { stamp } ->
          Buf.Enc.byte b 1;
          Buf.Enc.int b stamp
      | Return { stamp } ->
          Buf.Enc.byte b 2;
          Buf.Enc.int b stamp
      | Gimme { requester; ttl } ->
          Buf.Enc.byte b 3;
          Buf.Enc.int b requester;
          Buf.Enc.int b ttl)
    (fun d ->
      let* tag = byte d in
      match tag with
      | 0 ->
          let* stamp = int d in
          Ok (Token { stamp })
      | 1 ->
          let* stamp = int d in
          Ok (Loan { stamp })
      | 2 ->
          let* stamp = int d in
          Ok (Return { stamp })
      | 3 ->
          let* requester = int d in
          let* ttl = int d in
          Ok (Gimme { requester; ttl })
      | t -> bad_tag "seq-search" t)

(* ---------------- binsearch (shared with binsearch-throttle) -------- *)

let binsearch =
  let open Tr_proto.Binsearch in
  make_codec ~name:"binsearch" ~key:5 ~version:1
    (fun b msg ->
      match msg with
      | Token { stamp } ->
          Buf.Enc.byte b 0;
          Buf.Enc.int b stamp
      | Loan { stamp } ->
          Buf.Enc.byte b 1;
          Buf.Enc.int b stamp
      | Return { stamp } ->
          Buf.Enc.byte b 2;
          Buf.Enc.int b stamp
      | Gimme { requester; span; stamp } ->
          Buf.Enc.byte b 3;
          Buf.Enc.int b requester;
          Buf.Enc.int b span;
          Buf.Enc.int b stamp)
    (fun d ->
      let* tag = byte d in
      match tag with
      | 0 ->
          let* stamp = int d in
          Ok (Token { stamp })
      | 1 ->
          let* stamp = int d in
          Ok (Loan { stamp })
      | 2 ->
          let* stamp = int d in
          Ok (Return { stamp })
      | 3 ->
          let* requester = int d in
          let* span = int d in
          let* stamp = int d in
          Ok (Gimme { requester; span; stamp })
      | t -> bad_tag "binsearch" t)

(* ---------------- directed ---------------- *)

let directed =
  let open Tr_proto.Directed in
  make_codec ~name:"directed" ~key:6 ~version:1
    (fun b msg ->
      match msg with
      | Token { stamp } ->
          Buf.Enc.byte b 0;
          Buf.Enc.int b stamp
      | Loan { stamp } ->
          Buf.Enc.byte b 1;
          Buf.Enc.int b stamp
      | Return { stamp } ->
          Buf.Enc.byte b 2;
          Buf.Enc.int b stamp
      | Probe { requester } ->
          Buf.Enc.byte b 3;
          Buf.Enc.int b requester
      | Reply { stamp } ->
          Buf.Enc.byte b 4;
          Buf.Enc.int b stamp)
    (fun d ->
      let* tag = byte d in
      match tag with
      | 0 ->
          let* stamp = int d in
          Ok (Token { stamp })
      | 1 ->
          let* stamp = int d in
          Ok (Loan { stamp })
      | 2 ->
          let* stamp = int d in
          Ok (Return { stamp })
      | 3 ->
          let* requester = int d in
          Ok (Probe { requester })
      | 4 ->
          let* stamp = int d in
          Ok (Reply { stamp })
      | t -> bad_tag "directed" t)

(* ---------------- cleanup (rotation) ---------------- *)

let cleanup_rotation =
  let open Tr_proto.Cleanup in
  make_codec ~name:"binsearch-gc-rotation" ~key:7 ~version:1
    (fun b msg ->
      match msg with
      | RToken { stamp; satisfied } ->
          Buf.Enc.byte b 0;
          Buf.Enc.int b stamp;
          Buf.Enc.int_array b satisfied
      | RLoan { stamp; satisfied } ->
          Buf.Enc.byte b 1;
          Buf.Enc.int b stamp;
          Buf.Enc.int_array b satisfied
      | RReturn { stamp; satisfied } ->
          Buf.Enc.byte b 2;
          Buf.Enc.int b stamp;
          Buf.Enc.int_array b satisfied
      | RGimme { requester; seq; span; stamp } ->
          Buf.Enc.byte b 3;
          Buf.Enc.int b requester;
          Buf.Enc.int b seq;
          Buf.Enc.int b span;
          Buf.Enc.int b stamp)
    (fun d ->
      let* tag = byte d in
      match tag with
      | 0 ->
          let* stamp = int d in
          let* satisfied = int_array d in
          Ok (RToken { stamp; satisfied })
      | 1 ->
          let* stamp = int d in
          let* satisfied = int_array d in
          Ok (RLoan { stamp; satisfied })
      | 2 ->
          let* stamp = int d in
          let* satisfied = int_array d in
          Ok (RReturn { stamp; satisfied })
      | 3 ->
          let* requester = int d in
          let* seq = int d in
          let* span = int d in
          let* stamp = int d in
          Ok (RGimme { requester; seq; span; stamp })
      | t -> bad_tag "binsearch-gc-rotation" t)

(* ---------------- cleanup (inverse) ---------------- *)

let cleanup_inverse =
  let open Tr_proto.Cleanup in
  make_codec ~name:"binsearch-gc-inverse" ~key:8 ~version:1
    (fun b msg ->
      match msg with
      | IToken { stamp } ->
          Buf.Enc.byte b 0;
          Buf.Enc.int b stamp
      | ILoanVia { stamp; requester; trail } ->
          Buf.Enc.byte b 1;
          Buf.Enc.int b stamp;
          Buf.Enc.int b requester;
          Buf.Enc.list Buf.Enc.int b trail
      | IReturn { stamp } ->
          Buf.Enc.byte b 2;
          Buf.Enc.int b stamp
      | IGimme { requester; span; stamp; trail } ->
          Buf.Enc.byte b 3;
          Buf.Enc.int b requester;
          Buf.Enc.int b span;
          Buf.Enc.int b stamp;
          Buf.Enc.list Buf.Enc.int b trail)
    (fun d ->
      let* tag = byte d in
      match tag with
      | 0 ->
          let* stamp = int d in
          Ok (IToken { stamp })
      | 1 ->
          let* stamp = int d in
          let* requester = int d in
          let* trail = list int d in
          Ok (ILoanVia { stamp; requester; trail })
      | 2 ->
          let* stamp = int d in
          Ok (IReturn { stamp })
      | 3 ->
          let* requester = int d in
          let* span = int d in
          let* stamp = int d in
          let* trail = list int d in
          Ok (IGimme { requester; span; stamp; trail })
      | t -> bad_tag "binsearch-gc-inverse" t)

(* ---------------- adaptive ---------------- *)

let adaptive =
  let open Tr_proto.Adaptive in
  make_codec ~name:"adaptive" ~key:9 ~version:1
    (fun b msg ->
      match msg with
      | Token { stamp; idle_hops } ->
          Buf.Enc.byte b 0;
          Buf.Enc.int b stamp;
          Buf.Enc.int b idle_hops
      | Loan { stamp } ->
          Buf.Enc.byte b 1;
          Buf.Enc.int b stamp
      | Return { stamp } ->
          Buf.Enc.byte b 2;
          Buf.Enc.int b stamp
      | Gimme { requester; span; stamp } ->
          Buf.Enc.byte b 3;
          Buf.Enc.int b requester;
          Buf.Enc.int b span;
          Buf.Enc.int b stamp)
    (fun d ->
      let* tag = byte d in
      match tag with
      | 0 ->
          let* stamp = int d in
          let* idle_hops = int d in
          Ok (Token { stamp; idle_hops })
      | 1 ->
          let* stamp = int d in
          Ok (Loan { stamp })
      | 2 ->
          let* stamp = int d in
          Ok (Return { stamp })
      | 3 ->
          let* requester = int d in
          let* span = int d in
          let* stamp = int d in
          Ok (Gimme { requester; span; stamp })
      | t -> bad_tag "adaptive" t)

(* ---------------- pushpull ---------------- *)

let pushpull =
  let open Tr_proto.Pushpull in
  make_codec ~name:"pushpull" ~key:10 ~version:1
    (fun b msg ->
      match msg with
      | Token { stamp } ->
          Buf.Enc.byte b 0;
          Buf.Enc.int b stamp
      | Loan { stamp } ->
          Buf.Enc.byte b 1;
          Buf.Enc.int b stamp
      | Return { stamp } ->
          Buf.Enc.byte b 2;
          Buf.Enc.int b stamp
      | Gimme { requester; span; stamp } ->
          Buf.Enc.byte b 3;
          Buf.Enc.int b requester;
          Buf.Enc.int b span;
          Buf.Enc.int b stamp
      | Probe { holder; ttl } ->
          Buf.Enc.byte b 4;
          Buf.Enc.int b holder;
          Buf.Enc.int b ttl
      | Want { requester } ->
          Buf.Enc.byte b 5;
          Buf.Enc.int b requester)
    (fun d ->
      let* tag = byte d in
      match tag with
      | 0 ->
          let* stamp = int d in
          Ok (Token { stamp })
      | 1 ->
          let* stamp = int d in
          Ok (Loan { stamp })
      | 2 ->
          let* stamp = int d in
          Ok (Return { stamp })
      | 3 ->
          let* requester = int d in
          let* span = int d in
          let* stamp = int d in
          Ok (Gimme { requester; span; stamp })
      | 4 ->
          let* holder = int d in
          let* ttl = int d in
          Ok (Probe { holder; ttl })
      | 5 ->
          let* requester = int d in
          Ok (Want { requester })
      | t -> bad_tag "pushpull" t)

(* ---------------- ring-failsafe ---------------- *)

let failure =
  let open Tr_proto.Failure in
  make_codec ~name:"ring-failsafe" ~key:11 ~version:1
    (fun b msg ->
      match msg with
      | Token { gen; stamp } ->
          Buf.Enc.byte b 0;
          Buf.Enc.int b gen;
          Buf.Enc.int b stamp
      | Ack { gen; stamp } ->
          Buf.Enc.byte b 1;
          Buf.Enc.int b gen;
          Buf.Enc.int b stamp
      | WhoHas { initiator } ->
          Buf.Enc.byte b 2;
          Buf.Enc.int b initiator
      | Status { stamp; gen } ->
          Buf.Enc.byte b 3;
          Buf.Enc.int b stamp;
          Buf.Enc.int b gen
      | Regenerate { gen } ->
          Buf.Enc.byte b 4;
          Buf.Enc.int b gen)
    (fun d ->
      let* tag = byte d in
      match tag with
      | 0 ->
          let* gen = int d in
          let* stamp = int d in
          Ok (Token { gen; stamp })
      | 1 ->
          let* gen = int d in
          let* stamp = int d in
          Ok (Ack { gen; stamp })
      | 2 ->
          let* initiator = int d in
          Ok (WhoHas { initiator })
      | 3 ->
          let* stamp = int d in
          let* gen = int d in
          Ok (Status { stamp; gen })
      | 4 ->
          let* gen = int d in
          Ok (Regenerate { gen })
      | t -> bad_tag "ring-failsafe" t)

(* ---------------- binsearch-failsafe ---------------- *)

let failsafe_search =
  let open Tr_proto.Failsafe_search in
  make_codec ~name:"binsearch-failsafe" ~key:12 ~version:1
    (fun b msg ->
      match msg with
      | Token { gen; stamp } ->
          Buf.Enc.byte b 0;
          Buf.Enc.int b gen;
          Buf.Enc.int b stamp
      | Ack { gen; stamp } ->
          Buf.Enc.byte b 1;
          Buf.Enc.int b gen;
          Buf.Enc.int b stamp
      | Loan { gen; stamp } ->
          Buf.Enc.byte b 2;
          Buf.Enc.int b gen;
          Buf.Enc.int b stamp
      | Return { gen; stamp } ->
          Buf.Enc.byte b 3;
          Buf.Enc.int b gen;
          Buf.Enc.int b stamp
      | Gimme { requester; span; stamp } ->
          Buf.Enc.byte b 4;
          Buf.Enc.int b requester;
          Buf.Enc.int b span;
          Buf.Enc.int b stamp
      | WhoHas { initiator } ->
          Buf.Enc.byte b 5;
          Buf.Enc.int b initiator
      | Status { gen; stamp } ->
          Buf.Enc.byte b 6;
          Buf.Enc.int b gen;
          Buf.Enc.int b stamp
      | Regenerate { gen } ->
          Buf.Enc.byte b 7;
          Buf.Enc.int b gen)
    (fun d ->
      let* tag = byte d in
      match tag with
      | 0 ->
          let* gen = int d in
          let* stamp = int d in
          Ok (Token { gen; stamp })
      | 1 ->
          let* gen = int d in
          let* stamp = int d in
          Ok (Ack { gen; stamp })
      | 2 ->
          let* gen = int d in
          let* stamp = int d in
          Ok (Loan { gen; stamp })
      | 3 ->
          let* gen = int d in
          let* stamp = int d in
          Ok (Return { gen; stamp })
      | 4 ->
          let* requester = int d in
          let* span = int d in
          let* stamp = int d in
          Ok (Gimme { requester; span; stamp })
      | 5 ->
          let* initiator = int d in
          Ok (WhoHas { initiator })
      | 6 ->
          let* gen = int d in
          let* stamp = int d in
          Ok (Status { gen; stamp })
      | 7 ->
          let* gen = int d in
          Ok (Regenerate { gen })
      | t -> bad_tag "binsearch-failsafe" t)

(* ---------------- ring-membership ---------------- *)

let membership =
  let open Tr_proto.Membership in
  make_codec ~name:"ring-membership" ~key:13 ~version:1
    (fun b msg ->
      match msg with
      | Token { stamp; pred; bypass } ->
          Buf.Enc.byte b 0;
          Buf.Enc.int b stamp;
          Buf.Enc.int b pred;
          Buf.Enc.option Buf.Enc.int b bypass
      | JoinReq { joiner } ->
          Buf.Enc.byte b 1;
          Buf.Enc.int b joiner
      | Welcome { succ } ->
          Buf.Enc.byte b 2;
          Buf.Enc.int b succ
      | Relink { leaver; new_succ } ->
          Buf.Enc.byte b 3;
          Buf.Enc.int b leaver;
          Buf.Enc.int b new_succ)
    (fun d ->
      let* tag = byte d in
      match tag with
      | 0 ->
          let* stamp = int d in
          let* pred = int d in
          let* bypass = option int d in
          Ok (Token { stamp; pred; bypass })
      | 1 ->
          let* joiner = int d in
          Ok (JoinReq { joiner })
      | 2 ->
          let* succ = int d in
          Ok (Welcome { succ })
      | 3 ->
          let* leaver = int d in
          let* new_succ = int d in
          Ok (Relink { leaver; new_succ })
      | t -> bad_tag "ring-membership" t)

(* ---------------- random-walk ---------------- *)

let random_walk =
  let open Tr_proto.Random_walk in
  make_codec ~name:"random-walk" ~key:14 ~version:1
    (fun b (Token { gen; serial }) ->
      Buf.Enc.byte b 0;
      Buf.Enc.int b gen;
      Buf.Enc.int b serial)
    (fun d ->
      let* tag = byte d in
      match tag with
      | 0 ->
          let* gen = int d in
          let* serial = int d in
          Ok (Token { gen; serial })
      | t -> bad_tag "random-walk" t)

(* ---------------- registry ---------------- *)

type packed =
  | Packed :
      (module Node_intf.PROTOCOL with type msg = 'm) * 'm Codec.t
      -> packed

(* [binsearch-throttle] shares the [binsearch] codec but registers under
   its own protocol name (the codec key on the wire is the same — the
   two speak the same language, which is precisely the point). *)
let pack (type m) (module P : Node_intf.PROTOCOL with type msg = m)
    (codec : m Codec.t) =
  Packed ((module P), codec)

let all =
  [
    pack (module Tr_proto.Ring) ring;
    pack (module (val Tr_proto.Tree.protocol_t)) tree;
    pack (module (val Tr_proto.Suzuki_kasami.protocol_t)) suzuki_kasami;
    pack (module (val Tr_proto.Seq_search.protocol_t)) seq_search;
    pack (module (val Tr_proto.Binsearch.make ())) binsearch;
    pack (module (val Tr_proto.Binsearch.make ~throttle:true ())) binsearch;
    pack (module (val Tr_proto.Directed.protocol_t)) directed;
    pack (module (val Tr_proto.Cleanup.protocol_rotation_t)) cleanup_rotation;
    pack (module (val Tr_proto.Cleanup.protocol_inverse_t)) cleanup_inverse;
    pack (module (val Tr_proto.Adaptive.make ())) adaptive;
    pack (module (val Tr_proto.Pushpull.make ())) pushpull;
    pack (module (val Tr_proto.Failure.make ())) failure;
    pack (module (val Tr_proto.Failsafe_search.make ())) failsafe_search;
    pack (module (val Tr_proto.Membership.make ())) membership;
    pack (module Tr_proto.Random_walk) random_walk;
  ]

let name_of (Packed ((module P), _)) = P.name
let names = List.map name_of all
let find name = List.find_opt (fun p -> String.equal (name_of p) name) all

let find_exn name =
  match find name with
  | Some p -> p
  | None ->
      invalid_arg
        (Printf.sprintf "Tr_wire.Codecs: no codec for protocol %S (valid: %s)"
           name (String.concat ", " names))
