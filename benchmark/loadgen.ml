(* The suite's own open-loop load generator for the service.

   Requests are due on a seeded Poisson schedule. Each is stamped with
   its due time, and its latency runs from that due time to the receipt
   of its Grant: a generator stall therefore shows up in the latencies it
   delays instead of hiding in the gap. How late each send went out is
   recorded as well. The generator speaks the client wire protocol
   through the public [Service_wire] codecs, the resyncing
   [Frame.Decoder] and a [Readiness] set, from one thread over a fixed
   set of connections.

   A request's sequence number is its global index, so every response is
   matched to its request by array lookup. All per-request state lives in
   flat arrays sized before the run. *)

module Readiness = Tr_net_rt.Readiness
module Frame = Tr_wire.Frame
module Codec = Tr_wire.Codec
module Wire = Tr_service.Service_wire

external fd_int : Unix.file_descr -> int = "%identity"
external set_timerslack : int -> bool = "bench_set_timerslack"

let now = Mono.now

type conn = {
  fd : Unix.file_descr;
  key : int;
  dec : Frame.Decoder.t;
  mutable out : Bytes.t;
  mutable out_pos : int;
  mutable out_len : int;
  mutable alive : bool;
}

type trace = {
  spans : Spans.t;
  sp_request : int;
  sp_send : int;
  sp_recv : int;
  mutable req_span : int array;  (** Open request span per request id. *)
}

type t = {
  conns : conn array;
  rd : Readiness.t;
  clients : int;
  scratch : Codec.scratch;
  readbuf : Bytes.t;
  mutable due : float array;
  mutable sent : float array;
  mutable granted : float array;  (** [nan] until the Grant arrives. *)
  mutable released : Bytes.t;
  mutable client_of : int array;
  mutable issued : int;
  mutable grants : int;
  mutable releaseds : int;
  mutable welcomes : int;
  mutable rejects : int;
  mutable duplicates : int;
  mutable unknown : int;
  mutable decode_errors : int;
  mutable resync_skips : int;
  mutable conn_failures : int;
  mutable tick_every : float;
  mutable tick : float -> unit;
  mutable next_tick : float;
  ready_keys : int array;
  ready_rw : int array;
  mutable nready : int;
  mutable trace : trace option;
}

let sp_names = [ "service.request"; "service.client_send"; "service.client_recv" ]

(* The generator's thread waits with 1 ns timer slack so sends leave on
   time; threads it spawns later inherit that, so [close] (and anyone
   spawning the system under test) restores the default with [0]. *)
let connect ~addr ~conns ~clients =
  ignore (set_timerslack 1);
  let capacity = 64 in
  let conns =
    Array.init conns (fun _ ->
        let fd = Unix.socket (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0 in
        Unix.connect fd addr;
        Unix.set_nonblock fd;
        {
          fd;
          key = fd_int fd;
          dec = Frame.Decoder.create ();
          out = Bytes.create 65536;
          out_pos = 0;
          out_len = 0;
          alive = true;
        })
  in
  let rd = Readiness.create () in
  Array.iter (fun c -> Readiness.set rd c.fd ~read:true ~write:false) conns;
  {
    conns;
    rd;
    clients;
    scratch = Codec.scratch ();
    readbuf = Bytes.create 65536;
    due = Array.create_float capacity;
    sent = Array.create_float capacity;
    granted = Array.make capacity Float.nan;
    released = Bytes.make capacity '\000';
    client_of = Array.make capacity 0;
    issued = 0;
    grants = 0;
    releaseds = 0;
    welcomes = 0;
    rejects = 0;
    duplicates = 0;
    unknown = 0;
    decode_errors = 0;
    resync_skips = 0;
    conn_failures = 0;
    tick_every = infinity;
    tick = ignore;
    next_tick = infinity;
    ready_keys = Array.make (Array.length conns) 0;
    ready_rw = Array.make (Array.length conns) 0;
    nready = 0;
    trace = None;
  }

(* Size the per-request arrays for a run of about [capacity] requests and
   turn span recording on or off; called after set-up, before load. *)
let prepare t ~capacity ~traced =
  assert (t.issued = 0);
  t.due <- Array.create_float capacity;
  t.sent <- Array.create_float capacity;
  t.granted <- Array.make capacity Float.nan;
  t.released <- Bytes.make capacity '\000';
  t.client_of <- Array.make capacity 0;
  t.trace <-
    (if traced then
       let spans = Spans.create sp_names in
       Some
         {
           spans;
           sp_request = Spans.name_id spans "service.request";
           sp_send = Spans.name_id spans "service.client_send";
           sp_recv = Spans.name_id spans "service.client_recv";
           req_span = Array.make capacity (-1);
         }
     else None)

let close t =
  Array.iter
    (fun c ->
      if c.alive then begin
        c.alive <- false;
        Readiness.remove t.rd c.fd;
        try Unix.close c.fd with Unix.Unix_error _ -> ()
      end)
    t.conns;
  Readiness.close t.rd;
  ignore (set_timerslack 0)

(* Grow the per-request arrays when a schedule outran its estimate. *)
let ensure_capacity t =
  let cap = Array.length t.due in
  if t.issued = cap then begin
    let grow a fill =
      let b = Array.make (2 * cap) fill in
      Array.blit a 0 b 0 cap;
      b
    in
    t.due <- grow t.due 0.;
    t.sent <- grow t.sent 0.;
    t.granted <- grow t.granted Float.nan;
    t.client_of <- grow t.client_of 0;
    let r = Bytes.make (2 * cap) '\000' in
    Bytes.blit t.released 0 r 0 cap;
    t.released <- r;
    Option.iter (fun tr -> tr.req_span <- grow tr.req_span (-1)) t.trace
  end

let drop_conn t c =
  if c.alive then begin
    c.alive <- false;
    t.conn_failures <- t.conn_failures + 1;
    Readiness.remove t.rd c.fd;
    try Unix.close c.fd with Unix.Unix_error _ -> ()
  end

let queued c = c.out_len - c.out_pos

let flush t c =
  let continue = ref true in
  while !continue && c.alive && queued c > 0 do
    match Unix.write c.fd c.out c.out_pos (queued c) with
    | w ->
        c.out_pos <- c.out_pos + w;
        if queued c = 0 then begin
          c.out_pos <- 0;
          c.out_len <- 0
        end
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        continue := false
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error (_, _, _) -> drop_conn t c
  done;
  if c.alive then Readiness.set t.rd c.fd ~read:true ~write:(queued c > 0)

let append c (buf : Buffer.t) =
  let len = Buffer.length buf in
  if c.out_len + len > Bytes.length c.out then begin
    let live = queued c in
    let cap = ref (Bytes.length c.out) in
    while live + len > !cap do
      cap := 2 * !cap
    done;
    let b = if !cap = Bytes.length c.out then c.out else Bytes.create !cap in
    Bytes.blit c.out c.out_pos b 0 live;
    c.out <- b;
    c.out_pos <- 0;
    c.out_len <- live
  end;
  Buffer.blit buf 0 c.out c.out_len len;
  c.out_len <- c.out_len + len

let conn_of t client = t.conns.(client mod Array.length t.conns)

let send t client req =
  let c = conn_of t client in
  if c.alive then
    append c
      (Codec.encode_frame t.scratch Wire.request_codec ~src:client
         ~channel:Tr_sim.Network.Reliable req)

(* Issue request [r = t.issued], due at [due], and write it out now. *)
let issue t ~due ~client =
  ensure_capacity t;
  let r = t.issued in
  t.issued <- r + 1;
  t.due.(r) <- due;
  t.client_of.(r) <- client;
  let c = conn_of t client in
  match t.trace with
  | None ->
      send t client (Wire.Acquire { client; seq = r });
      flush t c;
      t.sent.(r) <- now ()
  | Some tr ->
      let req = Spans.start tr.spans ~name:tr.sp_request ~parent:(-1) ~req:r ~at:due in
      tr.req_span.(r) <- req;
      let s = Spans.start tr.spans ~name:tr.sp_send ~parent:req ~req:r ~at:(now ()) in
      send t client (Wire.Acquire { client; seq = r });
      flush t c;
      let at = now () in
      Spans.finish tr.spans s ~at;
      t.sent.(r) <- at

let known t ~client ~seq = seq >= 0 && seq < t.issued && t.client_of.(seq) = client

let on_response t ~at (resp : Wire.response) =
  match resp with
  | Wire.Welcome { client; node = _ } ->
      if client >= 0 && client < t.clients then t.welcomes <- t.welcomes + 1
      else t.unknown <- t.unknown + 1
  | Wire.Grant { client; seq } ->
      if not (known t ~client ~seq) then t.unknown <- t.unknown + 1
      else if not (Float.is_nan t.granted.(seq)) then
        t.duplicates <- t.duplicates + 1
      else begin
        t.granted.(seq) <- at;
        t.grants <- t.grants + 1;
        match t.trace with
        | Some tr -> Spans.finish tr.spans tr.req_span.(seq) ~at
        | None -> ()
      end
  | Wire.Released { client; seq } ->
      if not (known t ~client ~seq) then t.unknown <- t.unknown + 1
      else if Bytes.get t.released seq <> '\000' then
        t.duplicates <- t.duplicates + 1
      else begin
        Bytes.set t.released seq '\001';
        t.releaseds <- t.releaseds + 1
      end
  | Wire.Rejected _ -> t.rejects <- t.rejects + 1
  | Wire.Committed _ -> t.unknown <- t.unknown + 1

let read_conn t c =
  let continue = ref true in
  while !continue && c.alive do
    let t0 = match t.trace with Some _ -> now () | None -> 0. in
    match Unix.read c.fd t.readbuf 0 (Bytes.length t.readbuf) with
    | 0 ->
        drop_conn t c;
        continue := false
    | len ->
        let at = now () in
        Frame.Decoder.feed_sub c.dec t.readbuf ~pos:0 ~len;
        let pumping = ref true in
        while !pumping do
          match Frame.Decoder.next_view c.dec with
          | Frame.Decoder.Await_view -> pumping := false
          | Frame.Decoder.Skip_view _ -> t.resync_skips <- t.resync_skips + 1
          | Frame.Decoder.View v -> (
              match Codec.decode_view Wire.response_codec v with
              | Ok env -> on_response t ~at env.Codec.msg
              | Error _ -> t.decode_errors <- t.decode_errors + 1)
        done;
        Option.iter
          (fun tr ->
            ignore
              (Spans.record tr.spans ~name:tr.sp_recv ~parent:(-1) ~req:(-1)
                 ~start:t0 ~stop:(now ())))
          t.trace
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        continue := false
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error (_, _, _) -> drop_conn t c
  done

(* Wait for readiness until [deadline] at the latest, then service every
   ready connection. Fires the periodic tick when it is due. *)
let pump t ~deadline =
  let n = now () in
  if n >= t.next_tick then begin
    t.tick n;
    t.next_tick <- n +. t.tick_every
  end;
  let timeout_s = Float.max 0. (Float.min deadline t.next_tick -. n) in
  t.nready <- 0;
  ignore
    (Readiness.wait t.rd ~timeout_s (fun ~fd ~readable ~writable ->
         if t.nready < Array.length t.ready_keys then begin
           t.ready_keys.(t.nready) <- fd;
           t.ready_rw.(t.nready) <-
             (if readable then 1 else 0) lor if writable then 2 else 0;
           t.nready <- t.nready + 1
         end));
  for i = 0 to t.nready - 1 do
    Array.iter
      (fun c ->
        if c.key = t.ready_keys.(i) then begin
          if t.ready_rw.(i) land 2 <> 0 then flush t c;
          if t.ready_rw.(i) land 1 <> 0 && c.alive then read_conn t c
        end)
      t.conns
  done

let every t period f =
  t.tick_every <- period;
  t.tick <- f;
  t.next_tick <- now () +. period

let live t = Array.exists (fun c -> c.alive) t.conns

(* Open one session per client; returns once every Welcome arrived. *)
let hello_all t ~timeout_s =
  for client = 0 to t.clients - 1 do
    send t client (Wire.Hello { client })
  done;
  Array.iter (flush t) t.conns;
  let deadline = now () +. timeout_s in
  while t.welcomes < t.clients && now () < deadline && live t do
    pump t ~deadline
  done;
  t.welcomes = t.clients

(* Arrival offsets of one phase: [rate * duration] requests, each due at
   a uniform random time in the phase, sorted. A Poisson process
   conditioned on its count is exactly this, so arrivals keep Poisson's
   burstiness while every seed offers the same number of requests: the
   figures of a phase then differ between seeds by how the service
   behaved, not by how many requests the seed happened to draw. *)
let schedule rng ~rate ~duration =
  let a =
    Array.init
      (int_of_float (Float.round (rate *. duration)))
      (fun _ -> Random.State.float rng duration)
  in
  Array.sort Float.compare a;
  a

(* Drive open-loop arrivals at [rate] for [duration] seconds, drawing
   arrival times and client ids from [rng]. Returns the request-id range
   issued. *)
let run_phase t ~rng ~rate ~duration =
  let offsets = schedule rng ~rate ~duration in
  let r0 = t.issued in
  let t0 = now () in
  let t_end = t0 +. duration in
  let i = ref 0 in
  while now () < t_end && live t do
    let n = now () in
    while !i < Array.length offsets && t0 +. offsets.(!i) <= n do
      issue t ~due:(t0 +. offsets.(!i)) ~client:(Random.State.int rng t.clients);
      incr i
    done;
    let next = if !i < Array.length offsets then t0 +. offsets.(!i) else t_end in
    pump t ~deadline:(Float.min next t_end)
  done;
  (r0, t.issued)

let outstanding t = t.issued - t.grants - t.rejects

(* Keep servicing responses until every issued request holds its Grant
   and Released, or [timeout_s] passes. *)
let drain t ~timeout_s =
  let deadline = now () +. timeout_s in
  while
    (outstanding t > 0 || t.releaseds < t.grants)
    && now () < deadline && live t
  do
    pump t ~deadline
  done

(* Latencies (due -> Grant, seconds) of requests [r0, r1); requests not
   yet granted are counted as missing. *)
let latencies t (r0, r1) =
  let s = Samples.create (r1 - r0) in
  let missing = ref 0 in
  for r = r0 to r1 - 1 do
    let g = t.granted.(r) in
    if Float.is_nan g then incr missing
    else Samples.add s (g -. t.due.(r))
  done;
  (s, !missing)

let lateness t (r0, r1) =
  let s = Samples.create (r1 - r0) in
  for r = r0 to r1 - 1 do
    Samples.add s (t.sent.(r) -. t.due.(r))
  done;
  s
