(* Not [open Tr_apps]: the app [Mutex] would shadow stdlib [Mutex]. *)
module Movement = Tr_apps.Movement
module Mutex_app = Tr_apps.Mutex
module Total_order = Tr_apps.Total_order
module Cluster = Tr_net_rt.Cluster
module Mailbox = Tr_net_rt.Mailbox
module Readiness = Tr_net_rt.Readiness
module Stream_io = Tr_net_rt.Stream_io
module Wakeup = Tr_net_rt.Wakeup
module Frame = Tr_wire.Frame
module Codec = Tr_wire.Codec
module Network = Tr_sim.Network

external fd_int : Unix.file_descr -> int = "%identity"

type app = Mutex | Total_order

let app_name = function Mutex -> "mutex" | Total_order -> "total-order"

type mode_source = Pinned of Movement.directive | Adaptive of Policy.t

type config = {
  cluster : Cluster.config;
  listen : Unix.sockaddr;
  app : app;
  cs_duration : float;
  mode : mode_source;
  report_every_s : float;
  verbose : bool;
}

let default_config ~n ~seed ~listen =
  let cluster =
    { (Cluster.default_config ~n ~seed) with Cluster.load = Cluster.External }
  in
  {
    cluster;
    listen;
    app = Mutex;
    cs_duration = 2.0;
    mode = Pinned Movement.default;
    report_every_s = 1.0;
    verbose = false;
  }

type stats = {
  mutable accepted : int;
  mutable conns_open : int;
  mutable sessions : int;
  mutable requests : int;
  mutable acquires : int;
  mutable releases : int;
  mutable publishes : int;
  mutable grants_sent : int;
  mutable released_sent : int;
  mutable committed_sent : int;
  mutable rejected_sent : int;
  mutable decode_errors : int;
  mutable resync_skips : int;
  mutable overflow_drops : int;
  mutable conn_out_hwm : int;
  mutable fifo_hwm : int;
}

let fresh_stats () =
  {
    accepted = 0;
    conns_open = 0;
    sessions = 0;
    requests = 0;
    acquires = 0;
    releases = 0;
    publishes = 0;
    grants_sent = 0;
    released_sent = 0;
    committed_sent = 0;
    rejected_sent = 0;
    decode_errors = 0;
    resync_skips = 0;
    overflow_drops = 0;
    conn_out_hwm = 0;
    fifo_hwm = 0;
  }

type outcome = {
  report : Cluster.report;
  stats : stats;
  switches : Policy.switch_event list;
}

(* Events cross from the shard domains (where the protocol hooks fire)
   to the single server I/O domain through a lock-free mailbox plus a
   wake pipe — the exact channel the cluster itself uses for load
   injection, pointed the other way. *)
type app_event =
  | Cs_enter of int
  | Cs_exit of int
  | Delivered of { node : int; global_seq : int }

type conn = {
  fd : Unix.file_descr;
  dec : Frame.Decoder.t;
  out : Stream_io.out;
  mutable alive : bool;
}

(* A client that stops reading cannot be allowed to buffer the server
   into the ground; past this backlog the connection is cut. Matches the
   transport's own per-peer drop threshold. *)
let out_limit = 4 * 1024 * 1024

let run ?on_ready config =
  (* A client's hang-up must cost its connection, not the process. *)
  Stream_io.ignore_sigpipe ();
  (match config.cluster.Cluster.load with
  | Cluster.External -> ()
  | _ ->
      invalid_arg
        "Server.run: cluster.load must be External (requests come from \
         clients, not a generator)");
  let n = config.cluster.Cluster.n in
  let st = fresh_stats () in
  let events : app_event Mailbox.t = Mailbox.create () in
  let wake = Wakeup.create () in
  let control_slot : Cluster.control option Atomic.t = Atomic.make None in
  let cluster_done = Atomic.make false in
  let directive =
    match config.mode with
    | Pinned d -> fun () -> d
    | Adaptive p -> Policy.directive p
  in
  (* Spawn the cluster on its own domain; [attach] hands us the control
     handle before any shard starts, so [inject] is safe from the first
     accepted request onward. *)
  let attach c = Atomic.set control_slot (Some c) in
  let spawn_cluster (type m)
      (protocol : (module Tr_sim.Node_intf.PROTOCOL with type msg = m))
      (codec : m Codec.t) =
    Domain.spawn (fun () ->
        Fun.protect
          ~finally:(fun () ->
            Atomic.set cluster_done true;
            Wakeup.wake wake)
          (fun () -> Cluster.run ~attach config.cluster protocol codec))
  in
  let cluster_domain =
    match config.app with
    | Mutex ->
        let on_event ~self ~now:_ ev =
          Mailbox.push events
            (match ev with `Enter -> Cs_enter self | `Exit -> Cs_exit self);
          Wakeup.wake wake
        in
        let p =
          Mutex_app.make ~cs_duration:config.cs_duration ~directive ~on_event ()
        in
        spawn_cluster
          (module (val p) : Tr_sim.Node_intf.PROTOCOL
            with type msg = Mutex_app.msg)
          App_codecs.mutex
    | Total_order ->
        let on_deliver ~self ~now:_ ~seq (p : Total_order.payload) =
          if p.Total_order.origin = self then begin
            Mailbox.push events (Delivered { node = self; global_seq = seq });
            Wakeup.wake wake
          end
        in
        let p = Total_order.make ~directive ~on_deliver () in
        spawn_cluster
          (module (val p) : Tr_sim.Node_intf.PROTOCOL
            with type msg = Total_order.msg)
          App_codecs.total_order
  in
  let rec await_control () =
    match Atomic.get control_slot with
    | Some c -> c
    | None ->
        if Atomic.get cluster_done then begin
          (* Re-raises the cluster's own exception (a config it rejected). *)
          ignore (Domain.join cluster_domain : Cluster.report);
          failwith "Server.run: cluster exited before attaching control"
        end;
        Unix.sleepf 0.001;
        await_control ()
  in
  let control = await_control () in
  (* Client-facing listener; a bad address stops the cluster first. *)
  let listen_fd =
    try Stream_io.listen config.listen
    with e ->
      control.Cluster.request_stop ();
      ignore (Domain.join cluster_domain : Cluster.report);
      Wakeup.close wake;
      raise e
  in
  let bound_addr = Unix.getsockname listen_fd in
  let rd = Readiness.create () in
  Readiness.set rd listen_fd ~read:true ~write:false;
  Readiness.set rd (Wakeup.read_fd wake) ~read:true ~write:false;
  let listen_key = fd_int listen_fd and wake_key = fd_int (Wakeup.read_fd wake) in
  let conns : (int, conn) Hashtbl.t = Hashtbl.create 1024 in
  let sessions : (int, conn) Hashtbl.t = Hashtbl.create 4096 in
  let mutex_fifo = Array.init n (fun _ -> Queue.create ()) in
  let pub_fifo = Array.init n (fun _ -> Queue.create ()) in
  let scratch = Codec.scratch () in
  let reader = Stream_io.reader () in
  let node_of client = client mod n in
  let drop_conn c =
    if c.alive then begin
      c.alive <- false;
      Readiness.remove rd c.fd;
      Stream_io.close_quietly c.fd;
      Hashtbl.remove conns (fd_int c.fd);
      st.conns_open <- st.conns_open - 1
    end
  in
  let interest c =
    if c.alive then
      Readiness.set rd c.fd ~read:true ~write:(Stream_io.queued c.out > 0)
  in
  let flush_conn c =
    if c.alive && Stream_io.flush c.fd c.out = Stream_io.failed then
      drop_conn c
    else interest c
  in
  let append_response c ~node resp =
    Stream_io.append_buffer c.out
      (Codec.encode_frame scratch Service_wire.response_codec ~src:node
         ~channel:Network.Reliable resp);
    let backlog = Stream_io.queued c.out in
    if backlog > st.conn_out_hwm then st.conn_out_hwm <- backlog;
    if backlog > out_limit then begin
      st.overflow_drops <- st.overflow_drops + 1;
      drop_conn c
    end
    else interest c
  in
  let send_to client ~node resp =
    match Hashtbl.find_opt sessions client with
    | Some c when c.alive -> append_response c ~node resp
    | Some _ -> Hashtbl.remove sessions client
    | None -> ()
  in
  let note_request () =
    match config.mode with
    | Adaptive p -> Policy.note_request p ~now:(control.Cluster.live_now ())
    | Pinned _ -> ()
  in
  let push_fifo q entry =
    Queue.add entry q;
    let depth = Queue.length q in
    if depth > st.fifo_hwm then st.fifo_hwm <- depth
  in
  let handle_request c (req : Service_wire.request) =
    st.requests <- st.requests + 1;
    let bind client = Hashtbl.replace sessions client c in
    let reject client seq reason =
      st.rejected_sent <- st.rejected_sent + 1;
      append_response c ~node:0 (Service_wire.Rejected { client; seq; reason })
    in
    match req with
    | Service_wire.Hello { client } ->
        if client < 0 then reject client 0 "bad-client"
        else begin
          bind client;
          st.sessions <- Hashtbl.length sessions;
          append_response c ~node:(node_of client)
            (Service_wire.Welcome { client; node = node_of client })
        end
    | Service_wire.Acquire { client; seq } ->
        if client < 0 then reject client seq "bad-client"
        else begin
          bind client;
          st.acquires <- st.acquires + 1;
          let node = node_of client in
          push_fifo mutex_fifo.(node) (client, seq);
          note_request ();
          control.Cluster.inject node
        end
    | Service_wire.Release { client; seq = _ } ->
        (* Advisory: the lease timer is the release authority. *)
        if client >= 0 then st.releases <- st.releases + 1
    | Service_wire.Publish { client; seq; payload = _ } ->
        if client < 0 then reject client seq "bad-client"
        else begin
          bind client;
          st.publishes <- st.publishes + 1;
          let node = node_of client in
          push_fifo pub_fifo.(node) (client, seq);
          note_request ();
          control.Cluster.inject node
        end
  in
  (* A request that overflows its connection drops it; reading stops
     there. *)
  let view c v =
    (match Codec.decode_view Service_wire.request_codec v with
    | Ok env -> handle_request c env.Codec.msg
    | Error _ -> st.decode_errors <- st.decode_errors + 1);
    c.alive
  in
  let skip _ = st.resync_skips <- st.resync_skips + 1 in
  let read_conn c =
    if not (Stream_io.read_frames reader c.fd c.dec ~skip ~view c) then
      drop_conn c
  in
  let accept_loop () =
    let continue = ref true in
    while !continue do
      match Unix.accept listen_fd with
      | fd, _ ->
          Unix.set_nonblock fd;
          (match config.listen with
          | Unix.ADDR_INET _ -> Stream_io.set_nodelay fd
          | Unix.ADDR_UNIX _ -> ());
          let c =
            {
              fd;
              dec = Frame.Decoder.create ();
              out = Stream_io.out 4096;
              alive = true;
            }
          in
          Hashtbl.replace conns (fd_int fd) c;
          st.accepted <- st.accepted + 1;
          st.conns_open <- st.conns_open + 1;
          Readiness.set rd fd ~read:true ~write:false
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          continue := false
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | exception Unix.Unix_error (_, _, _) -> continue := false
    done
  in
  let process_events () =
    List.iter
      (fun ev ->
        match ev with
        | Cs_enter node -> (
            match Queue.peek_opt mutex_fifo.(node) with
            | Some (client, seq) ->
                st.grants_sent <- st.grants_sent + 1;
                send_to client ~node (Service_wire.Grant { client; seq })
            | None -> ())
        | Cs_exit node -> (
            match Queue.take_opt mutex_fifo.(node) with
            | Some (client, seq) ->
                st.released_sent <- st.released_sent + 1;
                send_to client ~node (Service_wire.Released { client; seq })
            | None -> ())
        | Delivered { node; global_seq } -> (
            match Queue.take_opt pub_fifo.(node) with
            | Some (client, seq) ->
                st.committed_sent <- st.committed_sent + 1;
                send_to client ~node
                  (Service_wire.Committed { client; seq; global_seq })
            | None -> ()))
      (Mailbox.drain events)
  in
  let tick_policy () =
    match config.mode with
    | Adaptive p -> Policy.tick p ~now:(control.Cluster.live_now ())
    | Pinned _ -> ()
  in
  let print_report () =
    if config.verbose then begin
      (* One coherent snapshot: the cluster's shard domains are still
         mutating these counters (and may be tearing down), so reading
         live atomics field by field could pair values from different
         moments. *)
      let ts =
        Tr_net_rt.Transport.snapshot_of_stats control.Cluster.transport_stats
      in
      let mode, per_rev =
        match config.mode with
        | Adaptive p ->
            (Movement.mode_to_string (Policy.mode p), Policy.per_rev p)
        | Pinned d -> (Movement.mode_to_string d.Movement.mode ^ "(pinned)", 0.)
      in
      Printf.printf
        "[service %s] t=%.1fu conns=%d sessions=%d req=%d grants=%d \
         released=%d committed=%d rejected=%d mode=%s per_rev=%.2f \
         fifo_hwm=%d conn_hwm=%dB frames_dropped=%d out_hwm=%dB \
         decode_err=%d resync=%d\n\
         %!"
        (app_name config.app)
        (control.Cluster.live_now ())
        st.conns_open st.sessions st.requests st.grants_sent st.released_sent
        st.committed_sent st.rejected_sent mode per_rev st.fifo_hwm
        st.conn_out_hwm
        ts.Tr_net_rt.Transport.snap_frames_dropped
        ts.Tr_net_rt.Transport.snap_out_hwm_bytes
        st.decode_errors st.resync_skips
    end
  in
  (match on_ready with
  | Some f -> f ~addr:bound_addr ~control
  | None -> ());
  let next_report = ref (Unix.gettimeofday () +. config.report_every_s) in
  let ready = ref [] in
  while not (Atomic.get cluster_done) do
    let timeout_s =
      Float.max 0.005
        (Float.min 0.5 (!next_report -. Unix.gettimeofday ()))
    in
    ready := [];
    ignore
      (Readiness.wait rd ~timeout_s (fun ~fd ~readable ~writable ->
           ready := (fd, readable, writable) :: !ready));
    (* The cluster and the app callbacks wake us through the pipe; the
       events they queued are processed below on every pass, so the pipe
       needs draining only when it was what woke us. *)
    List.iter
      (fun (fd, readable, writable) ->
        if fd = wake_key then ignore (Wakeup.drain wake : int)
        else if fd = listen_key then begin
          if readable then accept_loop ()
        end
        else
          match Hashtbl.find_opt conns fd with
          | None -> ()
          | Some c ->
              if writable then flush_conn c;
              if readable && c.alive then read_conn c)
      (List.rev !ready);
    process_events ();
    let now = Unix.gettimeofday () in
    if now >= !next_report then begin
      next_report := now +. config.report_every_s;
      tick_policy ();
      print_report ()
    end
  done;
  (* The cluster stopped; answer what can still be answered, then shut
     the front door. *)
  process_events ();
  Hashtbl.iter
    (fun _ c ->
      ignore (Stream_io.flush c.fd c.out : int);
      Readiness.remove rd c.fd;
      Stream_io.close_quietly c.fd)
    conns;
  Readiness.remove rd listen_fd;
  Stream_io.close_quietly listen_fd;
  Readiness.remove rd (Wakeup.read_fd wake);
  Readiness.close rd;
  Wakeup.close wake;
  Stream_io.unlink_listener config.listen;
  let report = Domain.join cluster_domain in
  let switches =
    match config.mode with Adaptive p -> Policy.switches p | Pinned _ -> []
  in
  { report; stats = st; switches }

let stats_json ~(outcome : outcome) ~app ~adaptive =
  let open Tr_stats.Json in
  let st = outcome.stats in
  obj
    [
      ("kind", json_string "service");
      ("seed", string_of_int outcome.report.Cluster.seed);
      ("app", json_string (app_name app));
      ("adaptive", if adaptive then "true" else "false");
      ("accepted", string_of_int st.accepted);
      ("sessions", string_of_int st.sessions);
      ("requests", string_of_int st.requests);
      ("acquires", string_of_int st.acquires);
      ("releases", string_of_int st.releases);
      ("publishes", string_of_int st.publishes);
      ("grants_sent", string_of_int st.grants_sent);
      ("released_sent", string_of_int st.released_sent);
      ("committed_sent", string_of_int st.committed_sent);
      ("rejected_sent", string_of_int st.rejected_sent);
      ("decode_errors", string_of_int st.decode_errors);
      ("resync_skips", string_of_int st.resync_skips);
      ("overflow_drops", string_of_int st.overflow_drops);
      ("conn_out_hwm", string_of_int st.conn_out_hwm);
      ("fifo_hwm", string_of_int st.fifo_hwm);
      ("switches", string_of_int (List.length outcome.switches));
      ("cluster_grants", string_of_int outcome.report.Cluster.grants);
      ( "frames_dropped",
        string_of_int outcome.report.Cluster.frames_dropped );
      ("out_hwm_bytes", string_of_int outcome.report.Cluster.out_hwm_bytes);
    ]
