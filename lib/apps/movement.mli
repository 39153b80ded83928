(** Token movement directives for the hybrid applications.

    The paper's §4.4 observation (Figure 10) is that plain ring rotation
    wins under heavy load — every node has work, so O(1) hops per serve
    beat O(log N) searches — while BinarySearch wins under light load.
    The mutex and total-order applications therefore support {e both}
    movements in one protocol: every token carries the mode it was
    dispatched under, holders consult a caller-supplied directive when
    passing the token on, and requesters suppress their Gimme searches
    while the last token they saw was rotating. An online policy (see
    [Tr_service.Policy]) flips the directive at run time; in-flight
    messages from the previous mode are handled harmlessly by the
    existing trap machinery.

    [park_after] additionally enables the paper's adaptive token {e
    speed}: after that many consecutive idle hops the token parks at its
    current holder instead of burning bandwidth, and is recalled by the
    next search (Search mode only — a rotating token must keep moving,
    since rotation is the only way requesters find it). *)

type mode = Rotate | Search

type directive = {
  mode : mode;
  park_after : int option;
      (** Park the token after this many consecutive idle hops (Search
          mode only). [None] never parks — the seed behaviour. *)
}

val default : directive
(** [{ mode = Search; park_after = None }] — byte-identical to the
    pre-hybrid applications. *)

val mode_to_string : mode -> string
val mode_of_string : string -> mode option

val parks : directive -> idle_hops:int -> bool
(** Whether a holder with no trap to serve parks the token here instead
    of passing it on: in [Search] mode only, once [idle_hops] (consecutive
    idle hops, this one included) reaches [park_after]. *)

val silent : last_mode:mode -> (unit -> directive) -> bool
(** Whether a new request stays silent rather than launching a search:
    only when the last token this node saw was rotating ([last_mode]) and
    the directive, read only in that case, still says [Rotate]. Rotation
    finds every requester, so searching would only burn messages and trap
    a loan out of the rotation order. Both must agree: after an online
    Rotate→Search switch the token parks, and a requester that last saw
    it rotating would strand its request by staying silent; a spurious
    gimme is cheap, a stranded request is not. *)
