type mode = Rotate | Search

type directive = { mode : mode; park_after : int option }

let default = { mode = Search; park_after = None }

let mode_to_string = function Rotate -> "rotate" | Search -> "search"

let mode_of_string = function
  | "rotate" -> Some Rotate
  | "search" -> Some Search
  | _ -> None

let parks d ~idle_hops =
  match d.park_after with
  | Some k -> d.mode = Search && idle_hops >= k
  | None -> false

let silent ~last_mode directive =
  last_mode = Rotate && (directive ()).mode = Rotate
