open Tr_wire

type request =
  | Hello of { client : int }
  | Acquire of { client : int; seq : int }
  | Release of { client : int; seq : int }
  | Publish of { client : int; seq : int; payload : string }

type response =
  | Welcome of { client : int; node : int }
  | Grant of { client : int; seq : int }
  | Released of { client : int; seq : int }
  | Committed of { client : int; seq : int; global_seq : int }
  | Rejected of { client : int; seq : int; reason : string }

let bad_tag codec tag =
  Error (Buf.Malformed (Printf.sprintf "%s: unknown message tag %#x" codec tag))

open Buf.Dec

(* Keys 31/32 sit far from the protocol registry's 1..13 block, so a
   client frame hitting a cluster port (or vice versa) is a loud key
   mismatch, not a silent misparse. *)

let request_codec : request Codec.t =
  {
    Codec.name = "service-request";
    key = 31;
    version = 1;
    encode_msg =
      (fun b msg ->
        match msg with
        | Hello { client } ->
            Buf.Enc.byte b 0;
            Buf.Enc.int b client
        | Acquire { client; seq } ->
            Buf.Enc.byte b 1;
            Buf.Enc.int b client;
            Buf.Enc.int b seq
        | Release { client; seq } ->
            Buf.Enc.byte b 2;
            Buf.Enc.int b client;
            Buf.Enc.int b seq
        | Publish { client; seq; payload } ->
            Buf.Enc.byte b 3;
            Buf.Enc.int b client;
            Buf.Enc.int b seq;
            Buf.Enc.string b payload);
    decode_msg =
      (* Match chains on the hot tags (Acquire/Publish dominate a loaded
         run); [let*] binds would allocate per frame. *)
      (fun d ->
        match byte d with
        | Ok 0 -> (
            match int d with
            | Ok client -> Ok (Hello { client })
            | Error _ as e -> e)
        | Ok 1 -> (
            match int d with
            | Ok client -> (
                match int d with
                | Ok seq -> Ok (Acquire { client; seq })
                | Error _ as e -> e)
            | Error _ as e -> e)
        | Ok 2 -> (
            match int d with
            | Ok client -> (
                match int d with
                | Ok seq -> Ok (Release { client; seq })
                | Error _ as e -> e)
            | Error _ as e -> e)
        | Ok 3 -> (
            match int d with
            | Ok client -> (
                match int d with
                | Ok seq -> (
                    match string d with
                    | Ok payload -> Ok (Publish { client; seq; payload })
                    | Error _ as e -> e)
                | Error _ as e -> e)
            | Error _ as e -> e)
        | Ok t -> bad_tag "service-request" t
        | Error _ as e -> e);
  }

let response_codec : response Codec.t =
  {
    Codec.name = "service-response";
    key = 32;
    version = 1;
    encode_msg =
      (fun b msg ->
        match msg with
        | Welcome { client; node } ->
            Buf.Enc.byte b 0;
            Buf.Enc.int b client;
            Buf.Enc.int b node
        | Grant { client; seq } ->
            Buf.Enc.byte b 1;
            Buf.Enc.int b client;
            Buf.Enc.int b seq
        | Released { client; seq } ->
            Buf.Enc.byte b 2;
            Buf.Enc.int b client;
            Buf.Enc.int b seq
        | Committed { client; seq; global_seq } ->
            Buf.Enc.byte b 3;
            Buf.Enc.int b client;
            Buf.Enc.int b seq;
            Buf.Enc.int b global_seq
        | Rejected { client; seq; reason } ->
            Buf.Enc.byte b 4;
            Buf.Enc.int b client;
            Buf.Enc.int b seq;
            Buf.Enc.string b reason);
    decode_msg =
      (fun d ->
        match byte d with
        | Ok 0 -> (
            match int d with
            | Ok client -> (
                match int d with
                | Ok node -> Ok (Welcome { client; node })
                | Error _ as e -> e)
            | Error _ as e -> e)
        | Ok 1 -> (
            match int d with
            | Ok client -> (
                match int d with
                | Ok seq -> Ok (Grant { client; seq })
                | Error _ as e -> e)
            | Error _ as e -> e)
        | Ok 2 -> (
            match int d with
            | Ok client -> (
                match int d with
                | Ok seq -> Ok (Released { client; seq })
                | Error _ as e -> e)
            | Error _ as e -> e)
        | Ok 3 -> (
            match int d with
            | Ok client -> (
                match int d with
                | Ok seq -> (
                    match int d with
                    | Ok global_seq -> Ok (Committed { client; seq; global_seq })
                    | Error _ as e -> e)
                | Error _ as e -> e)
            | Error _ as e -> e)
        | Ok 4 -> (
            match int d with
            | Ok client -> (
                match int d with
                | Ok seq -> (
                    match string d with
                    | Ok reason -> Ok (Rejected { client; seq; reason })
                    | Error _ as e -> e)
                | Error _ as e -> e)
            | Error _ as e -> e)
        | Ok t -> bad_tag "service-response" t
        | Error _ as e -> e);
  }
