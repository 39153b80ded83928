let escape_string s =
  let buffer = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buffer "\\\""
      | '\\' -> Buffer.add_string buffer "\\\\"
      | '\n' -> Buffer.add_string buffer "\\n"
      | '\r' -> Buffer.add_string buffer "\\r"
      | '\t' -> Buffer.add_string buffer "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buffer (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buffer c)
    s;
  Buffer.contents buffer

let json_string s = Printf.sprintf "\"%s\"" (escape_string s)

let json_float f =
  if Float.is_nan f || not (Float.is_finite f) then "null"
  else Printf.sprintf "%.9g" f

let obj fields =
  "{"
  ^ String.concat ","
      (List.map (fun (k, v) -> Printf.sprintf "%s:%s" (json_string k) v) fields)
  ^ "}"

let arr items = "[" ^ String.concat "," items ^ "]"

let summary_json s =
  obj
    [
      ("count", string_of_int (Summary.count s));
      ("mean", json_float (Summary.mean s));
      ("stddev", json_float (Summary.stddev s));
      ("min", json_float (Summary.min s));
      ("max", json_float (Summary.max s));
    ]

let quantiles_json q =
  obj
    (List.map
       (fun (label, p) -> (label, json_float (Quantile.quantile q p)))
       [ ("p50", 0.5); ("p90", 0.9); ("p99", 0.99) ])
