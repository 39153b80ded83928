open Tr_wire

type stats = {
  frames_sent : int Atomic.t;
  bytes_sent : int Atomic.t;
  frames_received : int Atomic.t;
  decode_errors : int Atomic.t;
  resync_skips : int Atomic.t;
  reconnects : int Atomic.t;
  frames_dropped : int Atomic.t;
  out_hwm_bytes : int Atomic.t;
  write_syscalls : int Atomic.t;
  read_syscalls : int Atomic.t;
  wait_calls : int Atomic.t;
  fds_ready : int Atomic.t;
  fds_registered : int Atomic.t;
  spin_hits : int Atomic.t;
  spin_misses : int Atomic.t;
  inproc_frames : int Atomic.t;
}

let make_stats () =
  {
    frames_sent = Atomic.make 0;
    bytes_sent = Atomic.make 0;
    frames_received = Atomic.make 0;
    decode_errors = Atomic.make 0;
    resync_skips = Atomic.make 0;
    reconnects = Atomic.make 0;
    frames_dropped = Atomic.make 0;
    out_hwm_bytes = Atomic.make 0;
    write_syscalls = Atomic.make 0;
    read_syscalls = Atomic.make 0;
    wait_calls = Atomic.make 0;
    fds_ready = Atomic.make 0;
    fds_registered = Atomic.make 0;
    spin_hits = Atomic.make 0;
    spin_misses = Atomic.make 0;
    inproc_frames = Atomic.make 0;
  }

(* A coherent point-in-time copy: every counter read exactly once, so a
   report racing live shards (or their teardown) can never observe a
   counter twice with different values or tear a row mid-print. *)
type snapshot = {
  snap_frames_sent : int;
  snap_bytes_sent : int;
  snap_frames_received : int;
  snap_decode_errors : int;
  snap_resync_skips : int;
  snap_reconnects : int;
  snap_frames_dropped : int;
  snap_out_hwm_bytes : int;
  snap_write_syscalls : int;
  snap_read_syscalls : int;
  snap_wait_calls : int;
  snap_fds_ready : int;
  snap_fds_registered : int;
  snap_spin_hits : int;
  snap_spin_misses : int;
  snap_inproc_frames : int;
}

let snapshot_of_stats s =
  {
    snap_frames_sent = Atomic.get s.frames_sent;
    snap_bytes_sent = Atomic.get s.bytes_sent;
    snap_frames_received = Atomic.get s.frames_received;
    snap_decode_errors = Atomic.get s.decode_errors;
    snap_resync_skips = Atomic.get s.resync_skips;
    snap_reconnects = Atomic.get s.reconnects;
    snap_frames_dropped = Atomic.get s.frames_dropped;
    snap_out_hwm_bytes = Atomic.get s.out_hwm_bytes;
    snap_write_syscalls = Atomic.get s.write_syscalls;
    snap_read_syscalls = Atomic.get s.read_syscalls;
    snap_wait_calls = Atomic.get s.wait_calls;
    snap_fds_ready = Atomic.get s.fds_ready;
    snap_fds_registered = Atomic.get s.fds_registered;
    snap_spin_hits = Atomic.get s.spin_hits;
    snap_spin_misses = Atomic.get s.spin_misses;
    snap_inproc_frames = Atomic.get s.inproc_frames;
  }

(* A shard's handle, made once by [adopt]: everything a wait needs is
   already resolved, so no call on it walks the shard's owners. *)
type shard = {
  shard_wait : timeout_s:float -> on_ready:(int -> unit) -> unit;
  shard_wake : Wakeup.t;  (** The shard's one wake pipe. *)
}

type t = {
  name : string;
  readiness : string;
  stats : stats;
  send : src:int -> dst:int -> delay:float -> string -> unit;
  send_frame : src:int -> dst:int -> delay:float -> Buffer.t -> unit;
  poll : owner:int -> upto:float -> (Frame.view -> unit) -> unit;
  adopt : int list -> shard;
  close : unit -> unit;
}

let name t = t.name
let readiness_backend t = t.readiness
let stats t = t.stats
let snapshot t = snapshot_of_stats t.stats
let send t = t.send
let send_frame t = t.send_frame
let poll t ?(upto = infinity) ~owner f = t.poll ~owner ~upto f

let adopt t ~owners = t.adopt owners

let wait (_ : t) shard ?(on_ready = fun _ -> ()) ~timeout_s () =
  shard.shard_wait ~timeout_s ~on_ready

let wake shard = Wakeup.wake shard.shard_wake

let count_decode_error t = Atomic.incr t.stats.decode_errors
let close t = t.close ()

(* Upper bound on any readiness sleep: a safety net against a lost
   wake-up, far above the hot-path cadence and far below human patience. *)
let max_wait_s = 0.25

(* Both transports resolve their shards' wait backend the same way. *)
let resolve_readiness = function
  | Some b -> Readiness.resolve ~source:"forced" b
  | None -> Readiness.default_backend ()

(* Decode one whole in-process frame in place. *)
let deliver_exact stats f frame =
  match Frame.decode_exact frame with
  | Ok v ->
      Atomic.incr stats.frames_received;
      f v
  | Error _ -> Atomic.incr stats.resync_skips

let check_node ~what ~n i =
  if i < 0 || i >= n then
    invalid_arg (Printf.sprintf "Transport: %s node %d out of range" what i)

(* An adopt's owners, once each, every one validated before any is
   touched. *)
let claim ~n ~lookup ~adopted owners =
  List.map
    (fun i ->
      check_node ~what:"adopt owner" ~n i;
      let node = lookup i in
      if adopted node then
        invalid_arg
          (Printf.sprintf "Transport.adopt: node %d already adopted" i);
      node)
    (List.sort_uniq compare owners)

(* Unix.file_descr is an int on every Unix OCaml port; fd indexes are
   keyed by it. *)
external fd_int : Unix.file_descr -> int = "%identity"

(* ------------------------------------------------------------------ *)
(* The shard doorbell, shared by both transports                       *)
(* ------------------------------------------------------------------ *)

(* Every adopted shard sleeps in a readiness set holding its one wake
   pipe. Frames that need no fd (every loopback frame, in-process
   socket frames) reach it through [notified]: the sender pushes the
   frame, queues the destination node there once, and rings the pipe
   only if the shard had declared itself [idle]. The shard declares
   idle, then rechecks [notified] before it blocks. Each side writes
   before it reads, all through SC atomics, so either the sender sees
   [idle] and rings or the shard's recheck sees the node: no wake is
   lost, and a busy shard costs its senders no syscall. The shard
   clears a node's [queued] flag before it looks at the node's frames,
   so a frame pushed after that look notifies again. *)
type 'node doorbell = {
  rd : Readiness.t;
  wake : Wakeup.t;
  wake_fd : int;
  idle : bool Atomic.t;
  notified : 'node Mailbox.t;
}

let doorbell stats backend =
  let rd = Readiness.create ~backend () and wake = Wakeup.create () in
  Readiness.set rd (Wakeup.read_fd wake) ~read:true ~write:false;
  Atomic.incr stats.fds_registered;
  {
    rd;
    wake;
    wake_fd = fd_int (Wakeup.read_fd wake);
    idle = Atomic.make false;
    notified = Mailbox.create ();
  }

(* The sender's half, after the frame is pushed. The node's [queued]
   flag keeps it in [notified] at most once. *)
let ring bell ~queued node =
  if Atomic.compare_and_set queued false true then
    Mailbox.push bell.notified node;
  if Atomic.get bell.idle then Wakeup.wake bell.wake

(* The shard's half: declare idle, recheck, block. [on_fd] sees every
   ready fd, the wake pipe's included. Returns the number ready. *)
let block stats bell ~timeout_s on_fd =
  Atomic.set bell.idle true;
  let timeout_s = if Mailbox.is_empty bell.notified then timeout_s else 0.0 in
  Atomic.incr stats.wait_calls;
  let ready = Readiness.wait bell.rd ~timeout_s on_fd in
  Atomic.set bell.idle false;
  ignore (Atomic.fetch_and_add stats.fds_ready ready);
  ready

(* Drain the wake pipe, counting its reads; only when the set reported
   it. *)
let drain_wake stats bell =
  ignore (Atomic.fetch_and_add stats.read_syscalls (Wakeup.drain bell.wake))

let close_doorbell bell =
  Readiness.close bell.rd;
  Wakeup.close bell.wake

(* ------------------------------------------------------------------ *)
(* Loopback                                                            *)
(* ------------------------------------------------------------------ *)

module Loopback = struct
  type node = {
    id : int;
    (* Cross-domain side: producers push (due, frame). *)
    inbox : (float * string) Mailbox.t;
    (* Owner-shard side: deliveries ordered by due time. *)
    pending : string Tr_sim.Pqueue.t;
    tracked : shard_set option Atomic.t;  (** Set once, by [adopt]. *)
    queued : bool Atomic.t;  (** Queued in its shard's [notified]. *)
  }

  and shard_set = {
    bell : node doorbell;
    due : int Tr_sim.Pqueue.t;
        (** One (due time, node) entry per settled frame. An entry whose
            frame a poll already delivered costs one spurious activation,
            never a missed frame. *)
  }

  (* Move everything the other domains queued into the owner's heap,
     and tell the shard when each frame falls due. *)
  let settle set node =
    Atomic.set node.queued false;
    List.iter
      (fun (due, frame) ->
        Tr_sim.Pqueue.push node.pending ~time:due frame;
        Tr_sim.Pqueue.push set.due ~time:due node.id)
      (Mailbox.drain node.inbox)

  let create ?readiness ~clock ~n () =
    let rd_backend = resolve_readiness readiness in
    let stats = make_stats () in
    let nodes =
      Array.init n (fun id ->
          {
            id;
            inbox = Mailbox.create ();
            pending = Tr_sim.Pqueue.create ();
            tracked = Atomic.make None;
            queued = Atomic.make false;
          })
    in
    (* The frame must outlive the mailbox hop, so crossing domains costs
       exactly one string per frame — and that string is then decoded in
       place ([decode_exact]), never copied again. *)
    let send ~src ~dst ~delay frame =
      check_node ~what:"send src" ~n src;
      check_node ~what:"send dst" ~n dst;
      Atomic.incr stats.frames_sent;
      ignore (Atomic.fetch_and_add stats.bytes_sent (String.length frame));
      let node = nodes.(dst) in
      Mailbox.push node.inbox (Clock.now clock +. Float.max 0.0 delay, frame);
      match Atomic.get node.tracked with
      | None -> ()
      | Some set -> ring set.bell ~queued:node.queued node
    in
    let poll ~owner ~upto f =
      check_node ~what:"poll owner" ~n owner;
      let node = nodes.(owner) in
      match Atomic.get node.tracked with
      | None ->
          invalid_arg
            (Printf.sprintf "Transport.poll: node %d is not adopted" owner)
      | Some set ->
          settle set node;
          let now = Float.min (Clock.now clock) upto in
          while
            (not (Tr_sim.Pqueue.is_empty node.pending))
            && Tr_sim.Pqueue.top_time_exn node.pending <= now
          do
            deliver_exact stats f (Tr_sim.Pqueue.pop_exn node.pending)
          done
    in
    (* Report every owner with a frame already due; sleep only if there
       is none, until the earliest due frame, a wake or the timeout. *)
    let wait set ~timeout_s ~on_ready =
      let due_now () =
        (not (Tr_sim.Pqueue.is_empty set.due))
        && Tr_sim.Pqueue.top_time_exn set.due <= Clock.now clock
      in
      let fire () =
        while due_now () do
          on_ready (Tr_sim.Pqueue.pop_exn set.due)
        done
      in
      let settle_notified () =
        List.iter (settle set) (Mailbox.drain set.bell.notified)
      in
      settle_notified ();
      if due_now () || timeout_s <= 0.0 then fire ()
      else begin
        let timeout_s =
          if Tr_sim.Pqueue.is_empty set.due then timeout_s
          else
            Float.min timeout_s
              ((Tr_sim.Pqueue.top_time_exn set.due -. Clock.now clock)
              *. Clock.unit_s clock)
        in
        ignore
          (block stats set.bell ~timeout_s:(Float.min timeout_s max_wait_s)
             (fun ~fd:_ ~readable:_ ~writable:_ -> drain_wake stats set.bell)
            : int);
        settle_notified ();
        fire ()
      end
    in
    let shard_sets = ref [] in
    let adopt owners =
      let owned =
        claim ~n ~lookup:(Array.get nodes)
          ~adopted:(fun node -> Option.is_some (Atomic.get node.tracked))
          owners
      in
      let set =
        { bell = doorbell stats rd_backend; due = Tr_sim.Pqueue.create () }
      in
      List.iter
        (fun node ->
          Atomic.set node.tracked (Some set);
          (* Salvage half of the Dekker pair in [send]: frames sent
             before adoption carried no notification. *)
          if not (Mailbox.is_empty node.inbox) then
            ring set.bell ~queued:node.queued node)
        owned;
      shard_sets := set :: !shard_sets;
      { shard_wait = wait set; shard_wake = set.bell.wake }
    in
    let close () =
      List.iter (fun set -> close_doorbell set.bell) !shard_sets;
      shard_sets := []
    in
    {
      name = "loopback";
      readiness = Readiness.backend_name rd_backend;
      stats;
      send;
      send_frame =
        (fun ~src ~dst ~delay buf ->
          send ~src ~dst ~delay (Buffer.contents buf));
      poll;
      adopt;
      close;
    }
end

(* ------------------------------------------------------------------ *)
(* Sockets (TCP / Unix-domain)                                         *)
(* ------------------------------------------------------------------ *)

module Sockets = struct
  let backoff_min = 0.01
  let backoff_max = 1.0

  (* Cap on bytes queued behind an unreachable peer. Past this, new
     frames are dropped whole (never split — that would corrupt the
     framing) and counted in [frames_dropped]. *)
  let high_water = 4 * 1024 * 1024

  (* Starting size of a peer's coalescing buffer. A frame is a dozen
     bytes and a flush empties the buffer, so most peers never hold
     more than a few frames; [append] doubles it for the ones that do. *)
  let out_initial = 256

  let close_quietly = Stream_io.close_quietly

  type conn_in = {
    fd : Unix.file_descr;
    dec : Frame.Decoder.t;
    mutable ready : bool;
        (** Queued in its node's [ready_ins]; a dropped connection stays
            [ready] for good, so nothing queues it again. *)
  }

  (* Outgoing frames coalesce into one flat buffer, flushed with a
     single [write] per poll. [bounds] remembers each queued frame's
     length so a torn-down connection can drop its partially-written
     head frame whole — resuming mid-frame on a fresh connection would
     open the stream with garbage and force a resync at the receiver. *)
  type conn_out = {
    addr : Unix.sockaddr;
    local : node option;
        (** The destination, when it is hosted here behind a Unix-domain
            address: a candidate for a socket pair. *)
    mutable fd : Unix.file_descr option;
    mutable peer : conn_in option;
        (** The receive end of this connection's socket pair, registered
            in the same shard; [None] for a dialled connection. *)
    out : Stream_io.out;
    bounds : int Queue.t;  (** Byte length of each queued frame, in order. *)
    mutable head_off : int;  (** Bytes of the head frame already written. *)
    mutable backoff : float;
    mutable retry_at : float;  (** Wall time before which we won't dial. *)
    mutable in_busy : bool;  (** Queued in its node's [busy]. *)
    mutable in_retry : bool;  (** Queued in its shard set's [retry_outs]. *)
  }

  (* A node is {e tracked} once [adopt] hands it to a shard: its fds
     then live in that shard's readiness set and [poll] touches only what
     the last wait reported ready — O(ready), not O(connections). Polling
     a node before that is a caller error. *)
  and node = {
    id : int;
    listen : Unix.file_descr;
    nodelay : bool;
    mutable ins : conn_in list;
    outs : (int, conn_out) Hashtbl.t;  (** Keyed by destination node id. *)
    mutable last_dst : int;
    mutable last_out : conn_out option;
        (** [outs] at [last_dst]: a ring node always sends to the same
            successor. *)
    tracked : shard_set option Atomic.t;
        (** Set once, by [adopt]. Atomic because in-process senders on
            other domains must see the adoption (or be seen — see the
            salvage in [track_node]). *)
    mutable accept_ready : bool;
    mutable ready_ins : conn_in list;
    mutable busy : conn_out list;  (** Conns with unflushed bytes. *)
    ipc : string Mailbox.t;  (** In-process fast path: inbound frames. *)
    ipc_queued : bool Atomic.t;  (** Queued in its shard's [bell.notified]. *)
  }

  (* One per adopted shard: the doorbell's readiness set all the shard's
     fds are registered in, with the fd->peer index that turns a ready
     fd back into work in O(1). *)
  and shard_set = {
    bell : node doorbell;
        (** [notified] holds hosted nodes with undrained in-process
            frames. *)
    mutable fdx : entry array;
        (** By fd, grown on demand; fds are small dense ints. *)
    reader : Stream_io.reader;  (** One per shard, not per node. *)
    deliver : (Frame.view -> unit) -> Frame.view -> bool;
    resync : (Frame.view -> unit) -> unit;
        (** [Stream_io.read_frames]'s callbacks, built once: the poll's
            callback rides along as their context. *)
    mutable retry_outs : (node * conn_out) list;
        (** Down peers with queued bytes, waiting out their backoff. *)
    mutable hand_nodes : node array;
    mutable hand_ins : conn_in array;
    mutable hand_len : int;
        (** Paired receive ends a flush has filled since the last wait,
            with their nodes (a stack, grown on demand): work the next
            wait hands out without asking the kernel. *)
    mutable ewma_gap : float;  (** Recent inter-event gap estimate (s). *)
    mutable last_event : float;
    mutable wait_skips : int;
        (** Consecutive kernel waits elided because work was already in
            hand (bounded so every fd is still visited). *)
  }

  and entry =
    | Free
    | Listener of node
    | In of node * conn_in
    | Out of node * conn_out

  let queued co = Stream_io.queued co.out

  (* Registration keeps the [fds_registered] gauge honest: an fd counts
     once, however often its interest mask changes. Removal must happen
     before the fd is closed (epoll auto-forgets closed fds, but the
     poll set would otherwise scan a dead descriptor). *)
  let reg stats set fd entry ~read ~write =
    let key = fd_int fd in
    let len = Array.length set.fdx in
    if key >= len then begin
      let bigger = Array.make (Int.max (2 * len) (key + 1)) Free in
      Array.blit set.fdx 0 bigger 0 len;
      set.fdx <- bigger
    end;
    if set.fdx.(key) == Free then begin
      set.fdx.(key) <- entry;
      Atomic.incr stats.fds_registered
    end;
    Readiness.set set.bell.rd fd ~read ~write

  let entry_at set key =
    if key < Array.length set.fdx then set.fdx.(key) else Free

  let unreg stats set fd =
    let key = fd_int fd in
    if entry_at set key != Free then begin
      set.fdx.(key) <- Free;
      Atomic.decr stats.fds_registered;
      Readiness.remove set.bell.rd fd
    end

  let tear_down stats set co =
    (match co.fd with
    | Some fd ->
        unreg stats set fd;
        close_quietly fd
    | None -> ());
    co.fd <- None;
    co.peer <- None;
    if co.head_off > 0 then begin
      (* Drop the half-written head frame whole; its tail must not open
         the next connection mid-frame. *)
      let head = Queue.pop co.bounds in
      Stream_io.advance co.out (head - co.head_off);
      co.head_off <- 0;
      Atomic.incr stats.frames_dropped
    end;
    co.backoff <- Float.min backoff_max (Float.max backoff_min (2.0 *. co.backoff));
    co.retry_at <- Unix.gettimeofday () +. co.backoff;
    Atomic.incr stats.reconnects

  (* A destination in this very shard needs neither its listener nor the
     kernel's readiness report: both ends of a socket pair are registered
     at once, the receive end as the destination's inbound connection,
     and each flush that fills it hands the destination its work (see
     [hand]). The pair is connected from the start, so the send end asks
     for writability only once a write is cut short. A failing
     [socketpair] (fd exhaustion) raises, as [socket] does in
     [connect]. *)
  let pair stats set node co dnode =
    let snd, rcv =
      Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0
    in
    Unix.set_nonblock snd;
    Unix.set_nonblock rcv;
    let ci = { fd = rcv; dec = Frame.Decoder.create (); ready = false } in
    dnode.ins <- ci :: dnode.ins;
    reg stats set rcv (In (dnode, ci)) ~read:true ~write:false;
    co.fd <- Some snd;
    co.peer <- Some ci;
    reg stats set snd (Out (node, co)) ~read:false ~write:false

  let connect stats set node co =
    let fd = Unix.socket (Unix.domain_of_sockaddr co.addr) Unix.SOCK_STREAM 0 in
    Unix.set_nonblock fd;
    (match co.addr with
    | Unix.ADDR_INET _ -> Stream_io.set_nodelay fd
    | Unix.ADDR_UNIX _ -> ());
    let connected () =
      co.fd <- Some fd;
      (* Write interest from the start: dialing only ever happens with
         bytes queued, and a connect still in progress completes as a
         writability event. *)
      reg stats set fd (Out (node, co)) ~read:false ~write:true
    in
    match Unix.connect fd co.addr with
    | () -> connected ()
    | exception Unix.Unix_error ((EINPROGRESS | EWOULDBLOCK | EAGAIN | EINTR), _, _)
      ->
        connected ()
    | exception Unix.Unix_error (_, _, _) ->
        close_quietly fd;
        co.fd <- None;
        tear_down stats set co

  let in_shard set dnode =
    match Atomic.get dnode.tracked with Some s -> s == set | None -> false

  let dial stats set node co =
    match co.local with
    | Some dnode when in_shard set dnode -> pair stats set node co dnode
    | _ -> connect stats set node co

  (* Append one [len]-byte frame; the caller has already counted it. *)
  let append co ~len blit =
    Stream_io.append co.out ~len blit;
    Queue.add len co.bounds

  (* Account [wrote] flushed bytes against the frame-boundary queue. *)
  let advance co wrote =
    let rec pop w =
      if w > 0 then begin
        let head = Queue.peek co.bounds in
        let rem = head - co.head_off in
        if w >= rem then begin
          ignore (Queue.pop co.bounds);
          co.head_off <- 0;
          pop (w - rem)
        end
        else co.head_off <- co.head_off + w
      end
    in
    pop wrote

  (* [a] with room for index [len], the new tail filled with [fill]. *)
  let room a len fill =
    if len < Array.length a then a
    else begin
      let b = Array.make (Int.max 16 (2 * len)) fill in
      Array.blit a 0 b 0 len;
      b
    end

  (* A flush filled a pair's receive end: keep it for the next wait,
     which queues it as a readiness report would. Until then no poll
     reads it, so a shard pass carries each frame one hop, as when the
     kernel reported it. *)
  let hand set co ci =
    match co.local with
    | Some dnode when not ci.ready ->
        ci.ready <- true;
        let len = set.hand_len in
        set.hand_nodes <- room set.hand_nodes len dnode;
        set.hand_ins <- room set.hand_ins len ci;
        set.hand_nodes.(len) <- dnode;
        set.hand_ins.(len) <- ci;
        set.hand_len <- len + 1
    | _ -> ()

  (* One [write] covering every queued frame; a partial write means the
     kernel buffer is full, so stop rather than spin. Sends between two
     polls therefore cost at most one syscall total. *)
  let rec flush stats set node co =
    if queued co > 0 then
      match co.fd with
      | None ->
          if Unix.gettimeofday () >= co.retry_at then begin
            dial stats set node co;
            if co.fd <> None then flush stats set node co
          end
      | Some fd ->
          let wrote = Stream_io.flush fd co.out in
          Atomic.incr stats.write_syscalls;
          if wrote >= 0 then begin
            co.backoff <- backoff_min;
            advance co wrote;
            match co.peer with
            | Some ci when wrote > 0 -> hand set co ci
            | _ -> ()
          end
          else if wrote = Stream_io.failed then tear_down stats set co
          (* Otherwise still connecting, or the kernel buffer is full;
             the bytes stay queued for the next poll. *)

  let accept_all stats set node =
    let rec go () =
      match Unix.accept ~cloexec:true node.listen with
      | fd, _ ->
          Unix.set_nonblock fd;
          if node.nodelay then Stream_io.set_nodelay fd;
          (* Peers dial only with bytes queued, so a fresh connection
             is read in this same poll rather than after another wait.
             Registration is level-triggered: bytes arriving later still
             report readable. *)
          let ci = { fd; dec = Frame.Decoder.create (); ready = true } in
          node.ins <- ci :: node.ins;
          node.ready_ins <- ci :: node.ready_ins;
          reg stats set fd (In (node, ci)) ~read:true ~write:false;
          go ()
      | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
    in
    go ()

  (* Read everything available on one inbound connection. Returns false
     when the connection is finished (EOF or error) and should drop —
     the caller deregisters before closing. *)
  let read_conn stats set (ci : conn_in) f =
    let r = set.reader in
    let reads = r.Stream_io.reads in
    let open_ =
      Stream_io.read_frames r ci.fd ci.dec ~skip:set.resync ~view:set.deliver f
    in
    ignore
      (Atomic.fetch_and_add stats.read_syscalls (r.Stream_io.reads - reads));
    open_

  let drop_in stats set node (ci : conn_in) =
    ci.ready <- true;
    unreg stats set ci.fd;
    close_quietly ci.fd;
    node.ins <- List.filter (fun c -> c != ci) node.ins

  (* Tracked poll: touch only what readiness reported (accept_ready,
     ready_ins) plus connections with unflushed bytes (busy). Write
     interest tracks the busy state so an idle cluster registers no
     write-side events at all. *)
  let poll_tracked stats set node f =
    if node.accept_ready then begin
      node.accept_ready <- false;
      accept_all stats set node
    end;
    (match node.ready_ins with
    | [] -> ()
    | ris ->
        node.ready_ins <- [];
        List.iter
          (fun ci ->
            ci.ready <- false;
            if not (read_conn stats set ci f) then drop_in stats set node ci)
          ris);
    match node.busy with
    | [] -> ()
    | busy ->
        node.busy <- [];
        List.iter
          (fun co ->
            flush stats set node co;
            if queued co = 0 then begin
              co.in_busy <- false;
              match co.fd with
              | Some fd -> Readiness.set set.bell.rd fd ~read:false ~write:false
              | None -> ()
            end
            else begin
              node.busy <- co :: node.busy;
              match co.fd with
              | Some fd -> reg stats set fd (Out (node, co)) ~read:false ~write:true
              | None ->
                  if not co.in_retry then begin
                    co.in_retry <- true;
                    set.retry_outs <- (node, co) :: set.retry_outs
                  end
            end)
          busy

  (* Queue the paired receive ends flushed since the last wait and
     activate their nodes; whether there were any. *)
  let hand_out set on_ready =
    let handed = set.hand_len > 0 in
    for k = 0 to set.hand_len - 1 do
      let dnode = set.hand_nodes.(k) in
      dnode.ready_ins <- set.hand_ins.(k) :: dnode.ready_ins;
      on_ready dnode.id
    done;
    set.hand_len <- 0;
    handed

  (* In-process frames need no fd: the senders' notifications become
     activations. *)
  let rec activate on_ready = function
    | [] -> ()
    | (dnode : node) :: rest ->
        Atomic.set dnode.ipc_queued false;
        on_ready dnode.id;
        activate on_ready rest

  let env_flag name =
    match Sys.getenv_opt name with
    | Some ("1" | "true" | "yes") -> true
    | _ -> false

  let create ?readiness ?spin ?inproc ~clock:_ ~n ~owned ~addrs () =
    Stream_io.ignore_sigpipe ();
    (* High-N clusters hit the default soft RLIMIT_NOFILE long before
       they hit any real resource limit; raise it once per process. *)
    ignore (Readiness.raise_nofile ());
    let rd_backend = resolve_readiness readiness in
    let spin_wanted =
      match spin with Some s -> s | None -> env_flag "TR_SPIN"
    in
    (* Spinning trades CPU for wake latency, which is only a trade when
       there is a spare core to burn: on a single-CPU host the idle
       shard's busy-poll steals the very cycles the working shard needs,
       and "adaptive" must include adapting to the machine. Gate loudly,
       like an unavailable readiness backend. *)
    let spin = spin_wanted && Readiness.ncpus () > 1 in
    if spin_wanted && not spin then
      Printf.eprintf
        "[transport] spin-wait requested but only one CPU is online; \
         disabling the spin window (waits block immediately)\n\
         %!";
    let inproc =
      match inproc with Some i -> i | None -> env_flag "TR_INPROC"
    in
    if Array.length addrs <> n then
      invalid_arg "Transport.sockets: addrs array must have one entry per node";
    List.iter (fun i -> check_node ~what:"owned" ~n i) owned;
    let stats = make_stats () in
    let hosted = Array.make n None in
    (try
       List.iter
         (fun i ->
           hosted.(i) <-
             Some
               {
                 id = i;
                 listen = Stream_io.listen addrs.(i);
                 nodelay =
                   (match addrs.(i) with
                   | Unix.ADDR_INET _ -> true
                   | Unix.ADDR_UNIX _ -> false);
                 ins = [];
                 outs = Hashtbl.create 4;
                 last_dst = -1;
                 last_out = None;
                 tracked = Atomic.make None;
                 accept_ready = false;
                 ready_ins = [];
                 busy = [];
                 ipc = Mailbox.create ();
                 ipc_queued = Atomic.make false;
               })
         owned
     with e ->
       (* Release the listeners bound before the failing one. *)
       Array.iter
         (Option.iter (fun node ->
              close_quietly node.listen;
              Stream_io.unlink_listener addrs.(node.id)))
         hosted;
       raise e);
    let host ~what i =
      match hosted.(i) with
      | Some node -> node
      | None ->
          invalid_arg
            (Printf.sprintf "Transport.sockets: %s node %d is not hosted here"
               what i)
    in
    let out_conn node dst =
      match node.last_out with
      | Some co when node.last_dst = dst -> co
      | _ ->
          let co =
            match Hashtbl.find_opt node.outs dst with
            | Some co -> co
            | None ->
                let co =
                  {
                    addr = addrs.(dst);
                    local =
                      (match addrs.(dst) with
                      | Unix.ADDR_UNIX _ -> hosted.(dst)
                      | Unix.ADDR_INET _ -> None);
                    fd = None;
                    peer = None;
                    out = Stream_io.out out_initial;
                    bounds = Queue.create ();
                    head_off = 0;
                    backoff = backoff_min;
                    retry_at = 0.0;
                    in_busy = false;
                    in_retry = false;
                  }
                in
                Hashtbl.replace node.outs dst co;
                co
          in
          node.last_dst <- dst;
          node.last_out <- Some co;
          co
    in
    (* In-process delivery: the frame goes straight into the hosted
       destination's mailbox as one string (wire-format identical to
       what the socket would carry), then rings the destination shard's
       doorbell. A sender that finds the destination unadopted leaves
       the notification to [track_node]'s salvage. *)
    let deliver_inproc dnode frame =
      Atomic.incr stats.frames_sent;
      ignore (Atomic.fetch_and_add stats.bytes_sent (String.length frame));
      Atomic.incr stats.inproc_frames;
      Mailbox.push dnode.ipc frame;
      match Atomic.get dnode.tracked with
      | None -> ()
      | Some dset -> ring dset.bell ~queued:dnode.ipc_queued dnode
    in
    (* Enqueue only — the coalesced buffer is flushed once per [poll],
       so a burst of sends inside one loop iteration shares a single
       write syscall. *)
    let enqueue ~src ~dst ~len blit =
      check_node ~what:"send dst" ~n dst;
      let node = host ~what:"send src" src in
      let co = out_conn node dst in
      if queued co + len > high_water then Atomic.incr stats.frames_dropped
      else begin
        Atomic.incr stats.frames_sent;
        ignore (Atomic.fetch_and_add stats.bytes_sent len);
        append co ~len blit;
        (* Monotone max of any single peer's backlog — how close the run
           came to the high-water drop threshold. *)
        let rec bump v =
          let cur = Atomic.get stats.out_hwm_bytes in
          if v > cur && not (Atomic.compare_and_set stats.out_hwm_bytes cur v)
          then bump v
        in
        bump (queued co);
        if not co.in_busy then begin
          co.in_busy <- true;
          node.busy <- co :: node.busy
        end
      end
    in
    (* The hosted destination of an in-process send, if this is one. *)
    let inproc_dst ~src dst =
      if inproc && dst >= 0 && dst < n && hosted.(dst) <> None then begin
        check_node ~what:"send src" ~n src;
        ignore (host ~what:"send src" src);
        hosted.(dst)
      end
      else None
    in
    let send ~src ~dst ~delay:_ frame =
      match inproc_dst ~src dst with
      | Some dnode -> deliver_inproc dnode frame
      | None ->
          enqueue ~src ~dst ~len:(String.length frame) (fun dst_buf dst_off ->
              Bytes.blit_string frame 0 dst_buf dst_off (String.length frame))
    in
    let send_frame ~src ~dst ~delay:_ buf =
      match inproc_dst ~src dst with
      | Some dnode -> deliver_inproc dnode (Buffer.contents buf)
      | None ->
          enqueue ~src ~dst ~len:(Buffer.length buf) (fun dst_buf dst_off ->
              Buffer.blit buf 0 dst_buf dst_off (Buffer.length buf))
    in
    let poll ~owner ~upto:_ f =
      (* Socket arrival times are physical: any buffered byte arrived in
         the past, so an [upto] bound can never exclude it. *)
      let node = host ~what:"poll owner" owner in
      match Atomic.get node.tracked with
      | None ->
          invalid_arg
            (Printf.sprintf "Transport.poll: node %d is not adopted" owner)
      | Some set ->
          (* In-process fast path: frames co-resident nodes pushed
             straight into this node's mailbox — no fd, no syscall. *)
          if inproc then
            List.iter (deliver_exact stats f) (Mailbox.drain node.ipc);
          poll_tracked stats set node f
    in
    (* Every adopted shard's set, so close can release the epoll fds. *)
    let shard_sets = ref [] in
    (* Move a node into a shard's readiness set. Only tracked polls
       accept or dial, so an unadopted node owns no connection yet: its
       listener is all there is to register, and sends queued before
       adoption already sit in [busy] for the first poll to flush. The
       accept flag makes that first poll accept (and read) whatever
       peers dialed before it, so a shard's first pass carries a frame
       across as many of its nodes as it reaches, without a wait. *)
    let track_node set node =
      Atomic.set node.tracked (Some set);
      (* Salvage: frames that arrived while this node was unadopted
         carried no notification — queue one now, before the shard's
         first wait. *)
      if not (Mailbox.is_empty node.ipc) then
        ring set.bell ~queued:node.ipc_queued node;
      reg stats set node.listen (Listener node) ~read:true ~write:false;
      node.accept_ready <- true
    in
    (* Block in the shard's readiness set until an owner's fd is ready;
       each event is dispatched through the fd index and surfaced to the
       caller as an [on_ready owner] activation, so the shard loop knows
       exactly which nodes to poll — no per-node scan at any point. *)
    let visit set ~in_hand ~timeout_s ~on_ready =
      let timeout = ref (Float.max 0.0 (Float.min timeout_s max_wait_s)) in
      if in_hand then timeout := 0.0;
      (* Down peers with queued bytes wake their owner when the backoff
         expires; until then they bound the sleep. *)
      if set.retry_outs <> [] then begin
        let now = Unix.gettimeofday () in
        set.retry_outs <-
          List.filter
            (fun (node, co) ->
              if co.fd <> None || queued co = 0 then begin
                co.in_retry <- false;
                false
              end
              else if co.retry_at <= now then begin
                co.in_retry <- false;
                if not co.in_busy then begin
                  co.in_busy <- true;
                  node.busy <- co :: node.busy
                end;
                on_ready node.id;
                timeout := 0.0;
                false
              end
              else begin
                timeout := Float.min !timeout (co.retry_at -. now);
                true
              end)
            set.retry_outs
      end;
      (* Adaptive spin: before paying the blocking syscall, busy-poll
         the one signal visible from user space alone — the in-process
         mailbox — for a window sized by the recent inter-event gap. A
         hit turns the kernel wait into a free zero-timeout drain; a
         miss costs a few microseconds of CPU. Spinning adds zero
         syscalls either way. *)
      (if spin && !timeout > 0.0 && inproc then begin
         let signal () = not (Mailbox.is_empty set.bell.notified) in
         let budget = Float.min 100e-6 (Float.max 2e-6 (4.0 *. set.ewma_gap)) in
         let t0 = Unix.gettimeofday () in
         let hit = ref (signal ()) in
         while (not !hit) && Unix.gettimeofday () -. t0 < budget do
           Domain.cpu_relax ();
           hit := signal ()
         done;
         if !hit then begin
           Atomic.incr stats.spin_hits;
           timeout := 0.0
         end
         else Atomic.incr stats.spin_misses
       end);
      (* Work in hand skips the kernel here too, once the retries are
         settled (see [wait]). *)
      if in_hand && !timeout <= 0.0 && set.wait_skips < 63 then
        set.wait_skips <- set.wait_skips + 1
      else begin
        set.wait_skips <- 0;
        (* Idle-Out connections torn down by the peer (ERR/HUP with zero
           write interest) are collected here and dropped only after the
           dispatch loop finishes: Readiness.wait's callback must not
           mutate the set, and an eager remove would swap-compact the
           poll backend's dense arrays mid-iteration. *)
        let dead_outs = ref [] in
        let ready =
          block stats set.bell ~timeout_s:!timeout
            (fun ~fd ~readable ~writable ->
              if fd = set.bell.wake_fd then drain_wake stats set.bell
              else
              match entry_at set fd with
              | Free -> ()
              | Listener node ->
                  if readable then begin
                    node.accept_ready <- true;
                    on_ready node.id
                  end
              | In (node, ci) ->
                  if readable && not ci.ready then begin
                    ci.ready <- true;
                    node.ready_ins <- ci :: node.ready_ins;
                    on_ready node.id
                  end
              | Out (node, co) ->
                  if queued co = 0 then begin
                    (* Zero interest, yet an event: only ERR/HUP can land
                       here — the peer closed an idle connection. Drop it
                       (deferred) or level-triggered epoll reports it on
                       every wait. *)
                    match co.fd with
                    | Some cfd when fd_int cfd = fd ->
                        dead_outs := (cfd, co) :: !dead_outs
                    | _ -> ()
                  end
                  else if writable then on_ready node.id)
        in
        List.iter
          (fun (cfd, co) ->
            unreg stats set cfd;
            close_quietly cfd;
            co.fd <- None;
            co.peer <- None)
          !dead_outs;
        activate on_ready (Mailbox.drain set.bell.notified);
        (* Only the spin window reads the gap estimate. *)
        if spin && ready > 0 then begin
          let now = Unix.gettimeofday () in
          let gap = Float.max 1e-6 (now -. set.last_event) in
          set.ewma_gap <- (0.875 *. set.ewma_gap) +. (0.125 *. gap);
          set.last_event <- now
        end
      end
    in
    (* Paired and in-process work first: their nodes are known without
       the kernel. With such work in hand, the kernel visit can be pure
       overhead: there is nothing to block for (timeout 0). The absence
       of other socket events (accepts, frames from other shards and
       processes) cannot be proved from user space, so skips are
       bounded: every 64th wait visits the kernel and picks up whatever
       accrued. A skip allocates nothing. *)
    let wait set ~timeout_s ~on_ready =
      let handed = hand_out set on_ready in
      let woken = Mailbox.drain set.bell.notified in
      activate on_ready woken;
      let in_hand = handed || match woken with [] -> false | _ -> true in
      match set.retry_outs with
      | [] when in_hand && set.wait_skips < 63 ->
          set.wait_skips <- set.wait_skips + 1
      | _ -> visit set ~in_hand ~timeout_s ~on_ready
    in
    (* Build the shard's set with its wake pipe and listeners
       registered, once. *)
    let adopt owners =
      let adopted node = Option.is_some (Atomic.get node.tracked) in
      let nodes =
        claim ~n ~lookup:(host ~what:"adopt owner") ~adopted owners
      in
      let set =
        {
          bell = doorbell stats rd_backend;
          fdx = Array.make 256 Free;
          reader = Stream_io.reader ();
          deliver =
            (fun f v ->
              Atomic.incr stats.frames_received;
              f v;
              true);
          resync = (fun _ -> Atomic.incr stats.resync_skips);
          retry_outs = [];
          hand_nodes = [||];
          hand_ins = [||];
          hand_len = 0;
          ewma_gap = 1e-3;
          last_event = Unix.gettimeofday ();
          (* The first wait visits the kernel: it has no earlier
             visit to count from. *)
          wait_skips = 63;
        }
      in
      List.iter (track_node set) nodes;
      shard_sets := set :: !shard_sets;
      { shard_wait = wait set; shard_wake = set.bell.wake }
    in
    let close () =
      Array.iter
        (function
          | None -> ()
          | Some node ->
              close_quietly node.listen;
              List.iter (fun (ci : conn_in) -> close_quietly ci.fd) node.ins;
              Hashtbl.iter
                (fun _ co ->
                  match co.fd with Some fd -> close_quietly fd | None -> ())
                node.outs;
              Stream_io.unlink_listener addrs.(node.id))
        hosted;
      List.iter (fun set -> close_doorbell set.bell) !shard_sets;
      shard_sets := []
    in
    let name =
      if n > 0 then
        match addrs.(0) with
        | Unix.ADDR_UNIX _ -> "unix"
        | Unix.ADDR_INET _ -> "tcp"
      else "tcp"
    in
    {
      name;
      readiness = Readiness.backend_name rd_backend;
      stats;
      send;
      send_frame;
      poll;
      adopt;
      close;
    }
end

let loopback ?readiness ~clock ~n () = Loopback.create ?readiness ~clock ~n ()

let sockets ?readiness ?spin ?inproc ~clock ~n ~owned ~addrs () =
  Sockets.create ?readiness ?spin ?inproc ~clock ~n ~owned ~addrs ()

let uds_addrs ~dir ~n =
  Array.init n (fun i ->
      Unix.ADDR_UNIX (Filename.concat dir (Printf.sprintf "node-%d.sock" i)))

let tcp_addrs ?(host = "127.0.0.1") ~base_port ~n () =
  let ip = Unix.inet_addr_of_string host in
  Array.init n (fun i -> Unix.ADDR_INET (ip, base_port + i))
