(* A text front-end for the mini-Fortran language. The 40 Table 2
   kernels (lib/workloads/table2/) and examples/kernels/ are written in
   it.

   Syntax (one statement per line; '!' starts a comment):

     integer j
     real s = 0.0
     real A(100) seed 3        ! deterministic pseudo-random contents
     real G(100) pos 4         ! the same family shifted up by 0.5
     integer M(100) mask 5     ! integer selectors in -1..6, mostly positive
     real C(100) zero
     real D(100) linear 1.0 0.5  ! D(k) = 1.0 + 0.5*k (0-based linear index)

     do j = 1, 100
       C(j) = A(j) * 2.0 + D(j)
       s = s + A(j)
       if (A(j) .lt. 0.5) cycle
       if (M(j) .gt. 0) then
         C(j) = 2.0
       else
         C(j) = C(j) / G(j)
       end
     end

     output s

   Keywords are case-insensitive; names are not ([T] and [t] are two
   variables).
   A minus sign directly before a number makes a negative literal, so
   [j + -1] is [j + (-1)], not a negation; [-(1)] negates.
   Relational operators: .lt. .le. .gt. .ge. .eq. .ne. or < <= > >= == /=.
   DO steps: do j = lo, hi, step. *)

exception Parse_error of string

let err line fmt =
  Printf.ksprintf (fun s -> raise (Parse_error (Printf.sprintf "line %d: %s" line s))) fmt

(* ---- lexer ---- *)

type token =
  | TIdent of string
  | TInt of int
  | TFloat of float
  | TLparen
  | TRparen
  | TComma
  | TAssign
  | TPlus
  | TMinus
  | TStar
  | TSlash
  | TRel of Ast.cmp

let is_ident_char c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c = '_'

let is_digit c = c >= '0' && c <= '9'

(* Words the parser matches; the lexer lowercases these, and only these. *)
let keywords =
  [ "do"; "end"; "enddo"; "if"; "then"; "else"; "endif"; "cycle"; "output";
    "integer"; "int"; "real"; "mod"; "float"; "zero"; "seed"; "pos"; "mask";
    "linear" ]

(* Tokenize one logical line. *)
let tokenize lineno (s : string) : token list =
  let n = String.length s in
  let toks = ref [] in
  let emit t = toks := t :: !toks in
  let i = ref 0 in
  while !i < n do
    let c = s.[!i] in
    if c = ' ' || c = '\t' || c = '\r' then incr i
    else if c = '!' then i := n (* comment *)
    else if c = '(' then (emit TLparen; incr i)
    else if c = ')' then (emit TRparen; incr i)
    else if c = ',' then (emit TComma; incr i)
    else if c = '+' then (emit TPlus; incr i)
    else if c = '-' then (emit TMinus; incr i)
    else if c = '*' then (emit TStar; incr i)
    else if c = '=' && !i + 1 < n && s.[!i + 1] = '=' then (emit (TRel Ast.CEq); i := !i + 2)
    else if c = '=' then (emit TAssign; incr i)
    else if c = '<' && !i + 1 < n && s.[!i + 1] = '=' then (emit (TRel Ast.CLe); i := !i + 2)
    else if c = '<' then (emit (TRel Ast.CLt); incr i)
    else if c = '>' && !i + 1 < n && s.[!i + 1] = '=' then (emit (TRel Ast.CGe); i := !i + 2)
    else if c = '>' then (emit (TRel Ast.CGt); incr i)
    else if c = '/' && !i + 1 < n && s.[!i + 1] = '=' then (emit (TRel Ast.CNe); i := !i + 2)
    else if c = '/' then (emit TSlash; incr i)
    else if c = '.' && !i + 3 < n && not (is_digit s.[!i + 1]) then begin
      (* .lt. style operator *)
      let rec close k = if k < n && s.[k] <> '.' then close (k + 1) else k in
      let stop = close (!i + 1) in
      if stop >= n then err lineno "unterminated .op."
      else begin
        let op = String.lowercase_ascii (String.sub s (!i + 1) (stop - !i - 1)) in
        let rel =
          match op with
          | "lt" -> Ast.CLt
          | "le" -> Ast.CLe
          | "gt" -> Ast.CGt
          | "ge" -> Ast.CGe
          | "eq" -> Ast.CEq
          | "ne" -> Ast.CNe
          | _ -> err lineno "unknown operator .%s." op
        in
        emit (TRel rel);
        i := stop + 1
      end
    end
    else if is_digit c || (c = '.' && !i + 1 < n && is_digit s.[!i + 1]) then begin
      let start = !i in
      while !i < n && is_digit s.[!i] do incr i done;
      let is_float = ref false in
      (* A '.' continues the number only when followed by a digit, so
         "2.gt.3" lexes as [2; .gt.; 3] but "2.5" is one literal. *)
      if !i + 1 < n && s.[!i] = '.' && is_digit s.[!i + 1] then begin
        is_float := true;
        incr i;
        while !i < n && is_digit s.[!i] do incr i done
      end
      else if !i < n && s.[!i] = '.' && (!i + 1 >= n || not (is_ident_char s.[!i + 1]))
      then begin
        (* trailing "2." literal *)
        is_float := true;
        incr i
      end;
      if !i < n && (s.[!i] = 'e' || s.[!i] = 'E') then begin
        let j = ref (!i + 1) in
        if !j < n && (s.[!j] = '+' || s.[!j] = '-') then incr j;
        if !j < n && is_digit s.[!j] then begin
          is_float := true;
          i := !j;
          while !i < n && is_digit s.[!i] do incr i done
        end
      end;
      let text = String.sub s start (!i - start) in
      if !is_float then emit (TFloat (float_of_string text))
      else emit (TInt (int_of_string text))
    end
    else if is_ident_char c then begin
      let start = !i in
      while !i < n && is_ident_char s.[!i] do incr i done;
      let word = String.sub s start (!i - start) in
      let lower = String.lowercase_ascii word in
      emit (TIdent (if List.mem lower keywords then lower else word))
    end
    else err lineno "unexpected character %c" c
  done;
  List.rev !toks

(* ---- parser ---- *)

type line = { no : int; toks : token list }

type pstate = { mutable lines : line list }

let peek_line st = match st.lines with [] -> None | l :: _ -> Some l

let next_line st =
  match st.lines with
  | [] -> raise (Parse_error "unexpected end of file")
  | l :: rest ->
    st.lines <- rest;
    l

(* Expression parsing over one line's token list. *)
let rec parse_expr line toks : Ast.expr * token list =
  let lhs, toks = parse_term line toks in
  let rec go acc toks =
    match toks with
    | TPlus :: rest ->
      let rhs, rest = parse_term line rest in
      go (Ast.EBin (Ast.BAdd, acc, rhs)) rest
    | TMinus :: rest ->
      let rhs, rest = parse_term line rest in
      go (Ast.EBin (Ast.BSub, acc, rhs)) rest
    | _ -> (acc, toks)
  in
  go lhs toks

and parse_term line toks =
  let lhs, toks = parse_factor line toks in
  let rec go acc toks =
    match toks with
    | TStar :: rest ->
      let rhs, rest = parse_factor line rest in
      go (Ast.EBin (Ast.BMul, acc, rhs)) rest
    | TSlash :: rest ->
      let rhs, rest = parse_factor line rest in
      go (Ast.EBin (Ast.BDiv, acc, rhs)) rest
    | _ -> (acc, toks)
  in
  go lhs toks

and parse_factor line toks =
  match toks with
  | TInt n :: rest -> (Ast.EInt n, rest)
  | TFloat x :: rest -> (Ast.EReal x, rest)
  | TMinus :: TInt n :: rest -> (Ast.EInt (-n), rest)
  | TMinus :: TFloat x :: rest -> (Ast.EReal (-.x), rest)
  | TMinus :: rest ->
    let e, rest = parse_factor line rest in
    (Ast.ENeg e, rest)
  | TLparen :: rest -> (
    let e, rest = parse_expr line rest in
    match rest with
    | TRparen :: rest -> (e, rest)
    | _ -> err line "expected )")
  | TIdent "mod" :: TLparen :: rest -> (
    let a, rest = parse_expr line rest in
    match rest with
    | TComma :: rest -> (
      let b, rest = parse_expr line rest in
      match rest with
      | TRparen :: rest -> (Ast.EBin (Ast.BRem, a, b), rest)
      | _ -> err line "expected ) after mod")
    | _ -> err line "expected , in mod")
  | TIdent "int" :: TLparen :: rest -> (
    let a, rest = parse_expr line rest in
    match rest with
    | TRparen :: rest -> (Ast.ECvt (Ast.TInt, a), rest)
    | _ -> err line "expected ) after int()")
  | TIdent "float" :: TLparen :: rest -> (
    let a, rest = parse_expr line rest in
    match rest with
    | TRparen :: rest -> (Ast.ECvt (Ast.TReal, a), rest)
    | _ -> err line "expected ) after float()")
  | TIdent name :: TLparen :: rest ->
    let idxs, rest = parse_exprlist line rest in
    (Ast.EIdx (name, idxs), rest)
  | TIdent name :: rest -> (Ast.EVar name, rest)
  | _ -> err line "expected expression"

and parse_exprlist line toks =
  let e, toks = parse_expr line toks in
  match toks with
  | TComma :: rest ->
    let es, rest = parse_exprlist line rest in
    (e :: es, rest)
  | TRparen :: rest -> ([ e ], rest)
  | _ -> err line "expected , or ) in subscript list"

let parse_cond line toks : Ast.cond * token list =
  let lhs, toks = parse_expr line toks in
  match toks with
  | TRel rel :: rest ->
    let rhs, rest = parse_expr line rest in
    ({ Ast.rel; lhs; rhs }, rest)
  | _ -> err line "expected relational operator"

let expect_empty line = function
  | [] -> ()
  | _ -> err line "trailing tokens"

(* Array initializers by 0-based linear index. [seed] is deterministic
   pseudo-random data in 0.25..4.25, distinct per seed; [pos] shifts it
   to 0.75..4.75, safe as a divisor; [mask] gives integer selectors in
   -1..6, mostly positive (the biased branch profile a trace-selecting
   compiler assumes). Only the low three bits of the product survive
   [mod 8], and 7919 = 7 (mod 8), so [mask N] depends on [(k + N) mod 8]
   alone: a fixed period-8 pattern (-1 6 5 4 3 2 1 0 from k + N = 0),
   six of eight positive, and seeds equal mod 8 give the same array. *)
let seed_init seed k =
  let x = (k + (seed * 37)) * 2654435761 land 0xFFFFF in
  (float_of_int (x mod 2000) /. 500.0) +. 0.25

let pos_init seed k = seed_init seed k +. 0.5

let mask_init seed k = float_of_int (((((k + seed) * 7919) land 0xFFFF) mod 8) - 1)

(* ---- statements ---- *)

let rec parse_stmts st ~stop : Ast.stmt list =
  match peek_line st with
  | None -> err 0 "missing '%s'" (String.concat "/" stop)
  | Some { no = _; toks = TIdent kw :: _ } when List.mem kw stop -> []
  | Some _ ->
    let s = parse_stmt st in
    s :: parse_stmts st ~stop

and parse_stmt st : Ast.stmt =
  let { no; toks } = next_line st in
  match toks with
  | TIdent "do" :: TIdent v :: TAssign :: rest -> (
    let lo, rest = parse_expr no rest in
    match rest with
    | TComma :: rest -> (
      let hi, rest = parse_expr no rest in
      let step, rest =
        match rest with
        | TComma :: rest -> parse_expr no rest
        | _ -> (Ast.EInt 1, rest)
      in
      expect_empty no rest;
      let body = parse_stmts st ~stop:[ "end"; "enddo" ] in
      let e = next_line st in
      (match e.toks with
      | [ TIdent ("end" | "enddo") ] -> ()
      | _ -> err e.no "expected end");
      Ast.SDo { Ast.v; lo; hi; step; body })
    | _ -> err no "expected , after DO lower bound")
  | TIdent "if" :: TLparen :: rest -> (
    let cond, rest = parse_cond no rest in
    match rest with
    | TRparen :: TIdent "cycle" :: rest ->
      expect_empty no rest;
      Ast.SIf (cond, [ Ast.SCycle ], [])
    | TRparen :: TIdent "then" :: rest -> (
      expect_empty no rest;
      let then_ = parse_stmts st ~stop:[ "else"; "end"; "endif" ] in
      let e = next_line st in
      match e.toks with
      | [ TIdent ("end" | "endif") ] -> Ast.SIf (cond, then_, [])
      | [ TIdent "else" ] ->
        let else_ = parse_stmts st ~stop:[ "end"; "endif" ] in
        let e2 = next_line st in
        (match e2.toks with
        | [ TIdent ("end" | "endif") ] -> ()
        | _ -> err e2.no "expected end after else");
        Ast.SIf (cond, then_, else_)
      | _ -> err e.no "expected else or end")
    | TRparen :: rest -> (
      (* one-line IF: if (c) stmt *)
      match parse_simple_stmt no rest with
      | Some s -> Ast.SIf (cond, [ s ], [])
      | None -> err no "expected statement after if (...)")
    | _ -> err no "expected ) after condition")
  | [ TIdent "cycle" ] -> Ast.SCycle
  | _ -> (
    match parse_simple_stmt no toks with
    | Some s -> s
    | None -> err no "expected statement")

and parse_simple_stmt no toks : Ast.stmt option =
  match toks with
  | TIdent name :: TLparen :: rest -> (
    let idxs, rest = parse_exprlist no rest in
    match rest with
    | TAssign :: rest ->
      let e, rest = parse_expr no rest in
      expect_empty no rest;
      Some (Ast.SAssign (Ast.LIdx (name, idxs), e))
    | _ -> None)
  | TIdent name :: TAssign :: rest ->
    let e, rest = parse_expr no rest in
    expect_empty no rest;
    Some (Ast.SAssign (Ast.LVar name, e))
  | _ -> None

(* ---- declarations and the whole program ---- *)

let parse_decl no (toks : token list) : Ast.decl option =
  let array name ty rest =
    let rec dims acc = function
      | TInt d :: TComma :: rest -> dims (d :: acc) rest
      | TInt d :: TRparen :: rest -> (List.rev (d :: acc), rest)
      | _ -> err no "expected integer dimensions"
    in
    let dims, rest = dims [] rest in
    let init =
      match rest with
      | [] | [ TIdent "zero" ] -> fun _ -> 0.0
      | [ TIdent "seed"; TInt s ] -> seed_init s
      | [ TIdent "pos"; TInt s ] -> pos_init s
      | [ TIdent "mask"; TInt s ] -> mask_init s
      | [ TIdent "linear"; TFloat a; TFloat b ] -> fun k -> a +. (b *. float_of_int k)
      | [ TIdent "linear"; TInt a; TInt b ] ->
        fun k -> float_of_int a +. (float_of_int b *. float_of_int k)
      | _ ->
        err no "bad array initializer (use zero | seed N | pos N | mask N | linear A B)"
    in
    Some (Ast.DArray (name, ty, dims, init))
  in
  match toks with
  | TIdent ("integer" | "int") :: TIdent name :: TLparen :: rest -> array name Ast.TInt rest
  | TIdent "real" :: TIdent name :: TLparen :: rest -> array name Ast.TReal rest
  | TIdent ("integer" | "int") :: TIdent name :: rest -> (
    match rest with
    | [] -> Some (Ast.DScalar (name, Ast.TInt, 0.0))
    | [ TAssign; TInt v ] -> Some (Ast.DScalar (name, Ast.TInt, float_of_int v))
    | [ TAssign; TMinus; TInt v ] -> Some (Ast.DScalar (name, Ast.TInt, float_of_int (-v)))
    | _ -> err no "bad integer declaration")
  | TIdent "real" :: TIdent name :: rest -> (
    match rest with
    | [] -> Some (Ast.DScalar (name, Ast.TReal, 0.0))
    | [ TAssign; TFloat v ] -> Some (Ast.DScalar (name, Ast.TReal, v))
    | [ TAssign; TInt v ] -> Some (Ast.DScalar (name, Ast.TReal, float_of_int v))
    | [ TAssign; TMinus; TFloat v ] -> Some (Ast.DScalar (name, Ast.TReal, -.v))
    | [ TAssign; TMinus; TInt v ] ->
      Some (Ast.DScalar (name, Ast.TReal, float_of_int (-v)))
    | _ -> err no "bad real declaration")
  | _ -> None

let parse_program (source : string) : Ast.program =
  let raw_lines = String.split_on_char '\n' source in
  let lines =
    List.mapi (fun k s -> { no = k + 1; toks = tokenize (k + 1) s }) raw_lines
    |> List.filter (fun l -> l.toks <> [])
  in
  let decls = ref [] in
  let outs = ref [] in
  let st = { lines } in
  (* Leading declarations. *)
  let rec take_decls () =
    match peek_line st with
    | Some { no; toks } -> (
      match parse_decl no toks with
      | Some d ->
        ignore (next_line st);
        decls := d :: !decls;
        take_decls ()
      | None -> ())
    | None -> ()
  in
  take_decls ();
  (* Statements, with OUTPUT lines allowed anywhere at top level. *)
  let stmts = ref [] in
  let rec take_stmts () =
    match peek_line st with
    | None -> ()
    | Some { no; toks = TIdent "output" :: rest } ->
      ignore (next_line st);
      let rec names = function
        | [ TIdent n ] -> [ n ]
        | TIdent n :: TComma :: rest -> n :: names rest
        | _ -> err no "expected scalar names after output"
      in
      outs := !outs @ names rest;
      take_stmts ()
    | Some _ ->
      stmts := parse_stmt st :: !stmts;
      take_stmts ()
  in
  take_stmts ();
  { Ast.decls = List.rev !decls; stmts = List.rev !stmts; outs = !outs }

let parse_file (path : string) : Ast.program =
  let ic = open_in path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  parse_program s
