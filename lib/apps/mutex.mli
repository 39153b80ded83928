(** Distributed mutual exclusion with real critical sections.

    The protocols in [Tr_proto] serve requests instantaneously (the
    paper's zero-cost local events). A mutual-exclusion {e service} holds
    the resource for a non-zero critical-section duration: the token
    holder enters its critical section, keeps the token for
    [cs_duration], then exits and moves on — traps queued meanwhile are
    honoured in FIFO order afterwards.

    Token movement is hybrid (see {!Movement}): each token carries the
    mode it was dispatched under. In [Search] mode requesters chase the
    token with halving-span Gimme searches (the BinarySearch strategy);
    in [Rotate] mode the token circles the ring and requesters wait
    silently. A caller-supplied [directive] is consulted at every
    dispatch, so an online policy can flip modes (and enable idle
    parking) live; the defaults reproduce the pre-hybrid BinarySearch
    behaviour exactly.

    Safety — at most one node inside a critical section at any time — is
    inherited from token uniqueness; tests reconstruct all CS intervals
    from the trace ([Note] events ["cs-enter"]/["cs-exit"]) and assert
    they never overlap, including under randomized message delays. *)

open Tr_sim

type msg =
  | Token of { stamp : int; mode : Movement.mode; idle_hops : int }
  | Loan of { stamp : int }
  | Return of { stamp : int }
  | Gimme of { requester : int; span : int; stamp : int }

type state

type event = [ `Enter | `Exit ]
(** A critical section opened / closed at [self]. The service layer maps
    these to client grants and releases. *)

val make :
  ?cs_duration:float ->
  ?directive:(unit -> Movement.directive) ->
  ?on_event:(self:int -> now:float -> event -> unit) ->
  unit ->
  (module Node_intf.PROTOCOL with type state = state and type msg = msg)
(** Default [cs_duration] is 2.0 time units per critical section.
    [directive] is read by the token holder at every dispatch (default:
    always {!Movement.default}). [on_event] fires on every critical
    section enter/exit — on the engine's thread, so it must be fast and
    thread-safe when the protocol runs on a live cluster. *)

val protocol : (module Node_intf.PROTOCOL)

val cs_intervals : Trace.t -> (int * float * float) list
(** [(node, enter, exit)] for every completed critical section recorded
    in the trace, in entry order. *)

val intervals_overlap : (int * float * float) list -> bool
(** True if any two critical sections intersect — the safety violation. *)
