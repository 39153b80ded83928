type 'msg t = {
  name : string;
  key : int;
  version : int;
  encode_msg : Buffer.t -> 'msg -> unit;
  decode_msg : Buf.Dec.t -> ('msg, Buf.error) result;
}

type 'msg envelope = {
  src : int;
  channel : Tr_sim.Network.channel;
  msg : 'msg;
}

let channel_byte = function
  | Tr_sim.Network.Reliable -> 0
  | Tr_sim.Network.Cheap -> 1

let channel_of_byte = function
  | 0 -> Ok Tr_sim.Network.Reliable
  | 1 -> Ok Tr_sim.Network.Cheap
  | b -> Error (Buf.Malformed (Printf.sprintf "channel byte %#x" b))

let write_envelope codec payload ~src ~channel msg =
  Buf.Enc.uvarint payload codec.key;
  Buf.Enc.byte payload codec.version;
  Buf.Enc.uvarint payload src;
  Buf.Enc.byte payload (channel_byte channel);
  codec.encode_msg payload msg

(* One scratch pair per sending context: the payload is built first
   (its length prefix must precede it on the wire), then framed into
   [frame] by blitting Buffer-to-Buffer. Steady-state sends touch no
   fresh buffers and produce no intermediate strings. *)
type scratch = { payload : Buffer.t; frame : Buffer.t }

let scratch () = { payload = Buffer.create 256; frame = Buffer.create 256 }

let encode_payload scratch codec ~src ~channel msg =
  Buffer.clear scratch.payload;
  write_envelope codec scratch.payload ~src ~channel msg;
  scratch.payload

let encode_frame scratch codec ~src ~channel msg =
  let payload = encode_payload scratch codec ~src ~channel msg in
  Buffer.clear scratch.frame;
  Frame.encode_buffer scratch.frame payload;
  scratch.frame

let encode_envelope codec ~src ~channel msg =
  let payload = Buffer.create 32 in
  write_envelope codec payload ~src ~channel msg;
  Frame.to_string (Buffer.contents payload)

(* The one envelope decoder. The header is read with the raising
   primitives and the steps nest instead of binding, so nothing is
   allocated but what [decode_msg] builds and what [ok] makes of it. *)
let decode_with codec dec ~ok ~error =
  match Buf.Dec.uvarint_exn dec with
  | exception Buf.Dec.Failed e -> error e
  | key when key <> codec.key ->
      error
        (Buf.Malformed
           (Printf.sprintf "codec key %d, expected %d (%s)" key codec.key
              codec.name))
  | _ -> (
      match Buf.Dec.byte_exn dec with
      | exception Buf.Dec.Failed e -> error e
      | v when v <> codec.version ->
          error
            (Buf.Malformed
               (Printf.sprintf "codec version %d, expected %d (%s)" v
                  codec.version codec.name))
      | _ -> (
          match Buf.Dec.uvarint_exn dec with
          | exception Buf.Dec.Failed e -> error e
          | src -> (
              match Buf.Dec.byte_exn dec with
              | exception Buf.Dec.Failed e -> error e
              | cb -> (
                  match channel_of_byte cb with
                  | Error e -> error e
                  | Ok channel -> (
                      match codec.decode_msg dec with
                      | Error e -> error e
                      | Ok msg -> (
                          match Buf.Dec.expect_end dec with
                          | Error e -> error e
                          | Ok () -> ok src channel msg))))))

let envelope src channel msg = Ok { src; channel; msg }
let failed e = Error e
let decode_payload codec dec = decode_with codec dec ~ok:envelope ~error:failed

let decode_envelope codec payload =
  decode_payload codec (Buf.Dec.of_string payload)

let decode_view codec (v : Frame.view) =
  decode_payload codec
    (Buf.Dec.of_bytes v.Frame.buf ~pos:v.Frame.off ~limit:(v.Frame.off + v.Frame.len))
