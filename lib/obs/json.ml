type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Malformed of string

let malformed fmt = Printf.ksprintf (fun s -> raise (Malformed s)) fmt

(* {1 Writing} *)

let add_escaped b s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s

let escape s =
  let b = Buffer.create (String.length s + 8) in
  add_escaped b s;
  Buffer.contents b

let float_repr f =
  if not (Float.is_finite f) then "null"
  else
    let s = Printf.sprintf "%.15g" f in
    let s = if float_of_string s = f then s else Printf.sprintf "%.17g" f in
    (* keep the literal a float on the way back in *)
    if String.exists (fun c -> c = '.' || c = 'e') s then s else s ^ ".0"

let add_string b s =
  Buffer.add_char b '"';
  add_escaped b s;
  Buffer.add_char b '"'

(* A document container breaks across lines when it holds a non-empty
   container, so documents read one row per line whatever their nesting. *)
let holds_container items =
  List.exists (function Arr (_ :: _) | Obj (_ :: _) -> true | _ -> false) items

let rec add b ~doc depth v =
  let container open_ close broken add_item items =
    let newline d =
      Buffer.add_char b '\n';
      Buffer.add_string b (String.make (2 * d) ' ')
    in
    Buffer.add_char b open_;
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_string b (if doc && not broken then ", " else ",");
        if broken then newline (depth + 1);
        add_item x)
      items;
    if broken then newline depth;
    Buffer.add_char b close
  in
  match v with
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (if v then "true" else "false")
  | Int i -> Buffer.add_string b (string_of_int i)
  | Float f -> Buffer.add_string b (float_repr f)
  | Str s -> add_string b s
  | Arr vs -> container '[' ']' (doc && holds_container vs) (add b ~doc (depth + 1)) vs
  | Obj kvs ->
    container '{' '}'
      (doc && holds_container (List.map snd kvs))
      (fun (k, v) ->
        add_string b k;
        Buffer.add_string b (if doc then ": " else ":");
        add b ~doc (depth + 1) v)
      kvs

let print v =
  let b = Buffer.create 256 in
  add b ~doc:false 0 v;
  Buffer.contents b

let print_doc v =
  let b = Buffer.create 4096 in
  add b ~doc:true 0 v;
  Buffer.add_char b '\n';
  Buffer.contents b

(* {1 Reading} *)

let is_hex = function '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true | _ -> false

let parse s =
  let n = String.length s and pos = ref 0 in
  let peek () = if !pos < n then s.[!pos] else '\000' in
  let next () =
    if !pos >= n then malformed "unexpected end of input";
    incr pos;
    s.[!pos - 1]
  in
  let skip c = peek () = c && (incr pos; true) in
  let rec skip_ws () = if skip ' ' || skip '\t' || skip '\n' || skip '\r' then skip_ws () in
  let expect c =
    let g = next () in
    if g <> c then malformed "expected %C at %d, found %C" c (!pos - 1) g
  in
  let hex4 () =
    let h = String.sub s !pos (min 4 (n - !pos)) in
    if String.length h < 4 || not (String.for_all is_hex h) then
      malformed "bad \\u escape at %d" !pos;
    pos := !pos + 4;
    int_of_string ("0x" ^ h)
  in
  (* a \u escape decodes to UTF-8; UTF-16 surrogates must come in pairs *)
  let uchar () =
    let u = hex4 () in
    if u land 0xfc00 = 0xdc00 then malformed "lone low surrogate before %d" !pos
    else if u land 0xfc00 <> 0xd800 then u
    else if skip '\\' && skip 'u' then begin
      let lo = hex4 () in
      if lo land 0xfc00 <> 0xdc00 then malformed "unpaired high surrogate before %d" !pos;
      0x10000 + ((u - 0xd800) lsl 10) + (lo - 0xdc00)
    end
    else malformed "unpaired high surrogate before %d" !pos
  in
  let string_body () =
    let b = Buffer.create 16 in
    let rec go () =
      match next () with
      | '"' -> Buffer.contents b
      | '\\' ->
        (match next () with
        | ('"' | '\\' | '/') as c -> Buffer.add_char b c
        | 'b' -> Buffer.add_char b '\b'
        | 'f' -> Buffer.add_char b '\012'
        | 'n' -> Buffer.add_char b '\n'
        | 'r' -> Buffer.add_char b '\r'
        | 't' -> Buffer.add_char b '\t'
        | 'u' -> Buffer.add_utf_8_uchar b (Uchar.of_int (uchar ()))
        | c -> malformed "bad escape \\%c at %d" c (!pos - 2));
        go ()
      | c when c < ' ' -> malformed "raw control character in a string at %d" (!pos - 1)
      | c ->
        Buffer.add_char b c;
        go ()
    in
    go ()
  in
  let digits () =
    let start = !pos in
    while peek () >= '0' && peek () <= '9' do
      incr pos
    done;
    if !pos = start then malformed "expected a digit at %d" start
  in
  (* RFC 8259: -? (0 | [1-9][0-9]* ) (. [0-9]+)? ([eE] [+-]? [0-9]+)? *)
  let number () =
    let start = !pos in
    ignore (skip '-');
    if not (skip '0') then digits ();
    let frac = skip '.' in
    if frac then digits ();
    let exp = skip 'e' || skip 'E' in
    if exp then begin
      ignore (skip '+' || skip '-');
      digits ()
    end;
    let lit = String.sub s start (!pos - start) in
    if not (frac || exp) then
      match int_of_string_opt lit with
      | Some i -> Int i
      | None -> malformed "integer %s out of range" lit
    else
      let f = float_of_string lit in
      if Float.is_finite f then Float f else malformed "number %s out of range" lit
  in
  (* the items of an array or object, after its opening bracket *)
  let items close item =
    skip_ws ();
    if skip close then []
    else
      let rec more acc =
        let x = item () in
        skip_ws ();
        match next () with
        | ',' -> more (x :: acc)
        | c when c = close -> List.rev (x :: acc)
        | c -> malformed "expected ',' or %C at %d, found %C" close (!pos - 1) c
      in
      more []
  in
  let literal lit v =
    String.iter expect lit;
    v
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | '"' ->
      incr pos;
      Str (string_body ())
    | '{' ->
      incr pos;
      Obj (items '}' member)
    | '[' ->
      incr pos;
      Arr (items ']' value)
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | '-' | '0' .. '9' -> number ()
    | _ when !pos >= n -> malformed "unexpected end of input"
    | c -> malformed "unexpected %C at %d" c !pos
  and member () =
    skip_ws ();
    expect '"';
    let k = string_body () in
    skip_ws ();
    expect ':';
    (k, value ())
  in
  let v = value () in
  skip_ws ();
  if !pos <> n then malformed "trailing garbage at %d" !pos;
  v

(* {1 Accessors} *)

let shown v =
  let s = print v in
  if String.length s <= 40 then s else String.sub s 0 37 ^ "..."

let member_opt k = function
  | Obj kvs -> List.assoc_opt k kvs
  | v -> malformed "expected an object with field %S, found %s" k (shown v)

let member k v = match member_opt k v with Some v -> v | None -> malformed "missing field %S" k

let to_int = function Int i -> i | v -> malformed "expected an integer, found %s" (shown v)

let to_float = function
  | Float f -> f
  | Int i -> float_of_int i
  | v -> malformed "expected a number, found %s" (shown v)

let to_bool = function Bool b -> b | v -> malformed "expected a boolean, found %s" (shown v)
let to_string = function Str s -> s | v -> malformed "expected a string, found %s" (shown v)
let to_list = function Arr l -> l | v -> malformed "expected an array, found %s" (shown v)

(* {1 NDJSON files} *)

let write_ndjson ~path records =
  let tmp = path ^ ".tmp" in
  Out_channel.with_open_bin tmp (fun oc ->
      List.iter
        (fun r ->
          output_string oc (print r);
          output_char oc '\n')
        records);
  Sys.rename tmp path

let read_ndjson ~what ~schemas path on_record =
  let fail fmt = Printf.ksprintf (fun e -> Error (path ^ ": " ^ e)) fmt in
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error e -> Error e
  | text -> (
    let numbered = List.mapi (fun i l -> (i + 1, l)) (String.split_on_char '\n' text) in
    let record (lineno, l) decode =
      try decode (parse l) with Malformed e | Failure e -> malformed "line %d: %s" lineno e
    in
    try
      match List.filter (fun (_, l) -> String.trim l <> "") numbered with
      | [] -> fail "empty %s" what
      | header :: rest ->
        let schema = record header (fun j -> to_string (member "schema" j)) in
        if not (List.mem schema schemas) then
          fail "unsupported %s schema %S (want %S)" what schema (List.hd schemas)
        else Ok (List.iter (fun l -> record l on_record) rest)
    with Malformed e -> fail "malformed %s: %s" what e)
