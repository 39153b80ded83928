(* Span records for the traced run: (name, start, end, parent, req_id),
   kept in preallocated parallel arrays so recording a span allocates
   nothing. Spans are opened and closed by the suite's own code around
   its calls into each layer. When the arrays are full further spans are
   counted as dropped, not recorded. *)

type t = {
  names : string array;  (** Name table; a span stores its index. *)
  name : int array;
  start : float array;  (** Wall seconds. *)
  stop : float array;
  parent : int array;  (** Index of the enclosing span, or -1. *)
  req : int array;  (** Request id shared by the spans of one request, or -1. *)
  mutable n : int;
  mutable dropped : int;
}

let capacity = 1 lsl 18

let create names =
  {
    names = Array.of_list names;
    name = Array.make capacity 0;
    start = Array.create_float capacity;
    stop = Array.create_float capacity;
    parent = Array.make capacity (-1);
    req = Array.make capacity (-1);
    n = 0;
    dropped = 0;
  }

let name_id t s =
  let rec find i =
    if i = Array.length t.names then invalid_arg ("Spans.name_id: " ^ s)
    else if t.names.(i) = s then i
    else find (i + 1)
  in
  find 0

(* Open a span; the returned id closes it. -1 when the table is full
   ([finish] ignores it). *)
let start t ~name ~parent ~req ~at =
  if t.n = capacity then begin
    t.dropped <- t.dropped + 1;
    -1
  end
  else begin
    let i = t.n in
    t.n <- i + 1;
    t.name.(i) <- name;
    t.start.(i) <- at;
    t.stop.(i) <- at;
    t.parent.(i) <- parent;
    t.req.(i) <- req;
    i
  end

let finish t i ~at = if i >= 0 then t.stop.(i) <- at

let record t ~name ~parent ~req ~start:s ~stop:e =
  let i = start t ~name ~parent ~req ~at:s in
  finish t i ~at:e;
  i

(* Self time of every span: its duration minus the union of its
   children's intervals (clipped to it). *)
let self_times t =
  let n = t.n in
  let self = Array.init n (fun i -> t.stop.(i) -. t.start.(i)) in
  let children = Array.make n [] in
  for i = n - 1 downto 0 do
    let p = t.parent.(i) in
    if p >= 0 && p < n then children.(p) <- i :: children.(p)
  done;
  for p = 0 to n - 1 do
    match children.(p) with
    | [] -> ()
    | kids ->
        let lo = t.start.(p) and hi = t.stop.(p) in
        let iv =
          List.filter_map
            (fun c ->
              let a = Float.max lo t.start.(c) and b = Float.min hi t.stop.(c) in
              if b > a then Some (a, b) else None)
            kids
          |> List.sort compare
        in
        let covered, last =
          List.fold_left
            (fun (acc, cur) (a, b) ->
              match cur with
              | None -> (acc, Some (a, b))
              | Some (ca, cb) ->
                  if a <= cb then (acc, Some (ca, Float.max cb b))
                  else (acc +. (cb -. ca), Some (a, b)))
            (0., None) iv
        in
        let covered =
          match last with Some (a, b) -> covered +. (b -. a) | None -> covered
        in
        self.(p) <- self.(p) -. covered
  done;
  self

(* Self-time samples (seconds) of every span called [name]. *)
let self_samples t self name =
  let id = name_id t name in
  let s = Samples.create 1024 in
  for i = 0 to t.n - 1 do
    if t.name.(i) = id then Samples.add s self.(i)
  done;
  s

let write t path =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      let origin = if t.n > 0 then t.start.(0) else 0. in
      let ns x = Printf.sprintf "%.0f" ((x -. origin) *. 1e9) in
      for i = 0 to t.n - 1 do
        Printf.fprintf oc
          "{\"name\": %s, \"start_ns\": %s, \"end_ns\": %s, \"parent\": %d, \
           \"req_id\": %d}\n"
          (Bjson.quote t.names.(t.name.(i)))
          (ns t.start.(i)) (ns t.stop.(i)) t.parent.(i) t.req.(i)
      done)
