type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

exception Fail of int * string

(* ---- Parser: recursive descent over a string with one index. ---- *)

type state = { src : string; mutable pos : int }

let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

let advance st = st.pos <- st.pos + 1

let fail st msg = raise (Fail (st.pos, msg))

let rec skip_ws st =
  match peek st with
  | Some (' ' | '\t' | '\n' | '\r') ->
    advance st;
    skip_ws st
  | _ -> ()

let expect st c =
  match peek st with
  | Some c' when c' = c -> advance st
  | _ -> fail st (Printf.sprintf "expected '%c'" c)

(* Keywords true/false/null. *)
let literal st word value =
  String.iter (fun c -> expect st c) word;
  value

let hex_digit st c =
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
  | _ -> fail st "bad \\u escape"

(* UTF-8 encode one scalar value (surrogate pairs already combined). *)
let add_utf8 buf cp =
  if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
  else if cp < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xc0 lor (cp lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3f)))
  end
  else if cp < 0x10000 then begin
    Buffer.add_char buf (Char.chr (0xe0 lor (cp lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3f)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3f)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xf0 lor (cp lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 12) land 0x3f)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3f)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3f)))
  end

let parse_u16 st =
  let d () =
    match peek st with
    | Some c ->
      advance st;
      hex_digit st c
    | None -> fail st "truncated \\u escape"
  in
  let a = d () in
  let b = d () in
  let c = d () in
  let e = d () in
  (a lsl 12) lor (b lsl 8) lor (c lsl 4) lor e

let parse_string st =
  expect st '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek st with
    | None -> fail st "unterminated string"
    | Some '"' -> advance st
    | Some '\\' ->
      advance st;
      (match peek st with
      | None -> fail st "unterminated escape"
      | Some c ->
        advance st;
        (match c with
        | '"' -> Buffer.add_char buf '"'
        | '\\' -> Buffer.add_char buf '\\'
        | '/' -> Buffer.add_char buf '/'
        | 'b' -> Buffer.add_char buf '\b'
        | 'f' -> Buffer.add_char buf '\012'
        | 'n' -> Buffer.add_char buf '\n'
        | 'r' -> Buffer.add_char buf '\r'
        | 't' -> Buffer.add_char buf '\t'
        | 'u' ->
          let cp = parse_u16 st in
          (* Combine a high surrogate with a following \uXXXX low one. *)
          if cp >= 0xd800 && cp <= 0xdbff then begin
            expect st '\\';
            expect st 'u';
            let lo = parse_u16 st in
            if lo < 0xdc00 || lo > 0xdfff then fail st "unpaired surrogate";
            add_utf8 buf (0x10000 + ((cp - 0xd800) lsl 10) + (lo - 0xdc00))
          end
          else if cp >= 0xdc00 && cp <= 0xdfff then fail st "unpaired surrogate"
          else add_utf8 buf cp
        | _ -> fail st "bad escape"));
      go ()
    | Some c when Char.code c < 0x20 -> fail st "control character in string"
    | Some c ->
      advance st;
      Buffer.add_char buf c;
      go ()
  in
  go ();
  Buffer.contents buf

let parse_number st =
  let start = st.pos in
  let digits () =
    (* At least one digit, per the JSON grammar. *)
    let n = ref 0 in
    let rec go () =
      match peek st with
      | Some '0' .. '9' ->
        incr n;
        advance st;
        go ()
      | _ -> ()
    in
    go ();
    if !n = 0 then fail st "expected digit";
    !n
  in
  if peek st = Some '-' then advance st;
  (* Integer part: a lone 0, or 1-9 then digits (no leading zeros). *)
  (match peek st with
  | Some '0' -> advance st
  | Some '1' .. '9' -> ignore (digits ())
  | _ -> fail st "expected digit");
  let is_float = ref false in
  if peek st = Some '.' then begin
    is_float := true;
    advance st;
    ignore (digits ())
  end;
  (match peek st with
  | Some ('e' | 'E') ->
    is_float := true;
    advance st;
    (match peek st with Some ('+' | '-') -> advance st | _ -> ());
    ignore (digits ())
  | _ -> ());
  let tok = String.sub st.src start (st.pos - start) in
  if !is_float then
    match float_of_string_opt tok with
    | Some f -> Float f
    | None -> fail st "bad number"
  else
    match int_of_string_opt tok with
    | Some n -> Int n
    | None -> (
      (* Integer literal wider than the OCaml int range. *)
      match float_of_string_opt tok with
      | Some f -> Float f
      | None -> fail st "bad number")

let rec parse_value st =
  skip_ws st;
  match peek st with
  | None -> fail st "unexpected end of input"
  | Some 'n' -> literal st "null" Null
  | Some 't' -> literal st "true" (Bool true)
  | Some 'f' -> literal st "false" (Bool false)
  | Some '"' -> Str (parse_string st)
  | Some ('-' | '0' .. '9') -> parse_number st
  | Some '[' ->
    advance st;
    skip_ws st;
    if peek st = Some ']' then begin
      advance st;
      List []
    end
    else begin
      let items = ref [ parse_value st ] in
      let rec go () =
        skip_ws st;
        match peek st with
        | Some ',' ->
          advance st;
          items := parse_value st :: !items;
          go ()
        | Some ']' -> advance st
        | _ -> fail st "expected ',' or ']'"
      in
      go ();
      List (List.rev !items)
    end
  | Some '{' ->
    advance st;
    skip_ws st;
    if peek st = Some '}' then begin
      advance st;
      Obj []
    end
    else begin
      let member () =
        skip_ws st;
        let k = parse_string st in
        skip_ws st;
        expect st ':';
        let v = parse_value st in
        (k, v)
      in
      let members = ref [ member () ] in
      let rec go () =
        skip_ws st;
        match peek st with
        | Some ',' ->
          advance st;
          members := member () :: !members;
          go ()
        | Some '}' -> advance st
        | _ -> fail st "expected ',' or '}'"
      in
      go ();
      Obj (List.rev !members)
    end
  | Some _ -> fail st "unexpected character"

let parse s =
  let st = { src = s; pos = 0 } in
  match parse_value st with
  | v ->
    skip_ws st;
    if st.pos <> String.length s then
      Error (Printf.sprintf "trailing garbage at offset %d" st.pos)
    else Ok v
  | exception Fail (pos, msg) -> Error (Printf.sprintf "%s at offset %d" msg pos)

(* ---- Printer ---- *)

let escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let float_to_string f =
  (* NaN has no JSON rendering: null. Every finite float keeps a decimal
     point, integral ones included ("1.0", not "1"), so it parses back
     as a [Float] rather than an [Int]. *)
  if Float.is_nan f then "null"
  else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else Printf.sprintf "%.6f" f

let rec to_string = function
  | Null -> "null"
  | Bool b -> if b then "true" else "false"
  | Int n -> string_of_int n
  | Float f -> float_to_string f
  | Str s -> "\"" ^ escape s ^ "\""
  | List items -> "[" ^ String.concat ", " (List.map to_string items) ^ "]"
  | Obj members ->
    "{"
    ^ String.concat ", "
        (List.map (fun (k, v) -> "\"" ^ escape k ^ "\": " ^ to_string v) members)
    ^ "}"

let member k = function Obj members -> List.assoc_opt k members | _ -> None
