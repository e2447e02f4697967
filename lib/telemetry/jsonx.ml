type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* {1 Rendering}

   Values render into a growable byte writer.  Each leaf reserves its
   worst-case length once, then writes without further checks (a string
   reserves again at its first byte to escape).  A writer lives for one
   [to_string] call and nothing is shared at module level: [to_string]
   also runs on [Runner.Pool] domains. *)

type writer = { mutable bytes : Bytes.t; mutable len : int }

let grow w need =
  let bytes = Bytes.create (Stdlib.max need (2 * Bytes.length w.bytes)) in
  Bytes.blit w.bytes 0 bytes 0 w.len;
  w.bytes <- bytes

(* Room for [n] more bytes, doubling on growth. *)
let[@inline] reserve w n =
  if w.len + n > Bytes.length w.bytes then grow w (w.len + n)

(* The unchecked writes below assume their room is reserved. *)
let[@inline] put_char w c =
  Bytes.unsafe_set w.bytes w.len c;
  w.len <- w.len + 1

let[@inline] put_string w s =
  let n = String.length s in
  Bytes.unsafe_blit_string s 0 w.bytes w.len n;
  w.len <- w.len + n

(* Checked: for punctuation and literals. *)
let[@inline] add_char w c =
  reserve w 1;
  put_char w c

let[@inline] add_literal w s =
  reserve w (String.length s);
  put_string w s

(* 10^i for i = 0 .. 18, every power an OCaml int holds. *)
let pow10 =
  let a = Array.make 19 1 in
  for i = 1 to 18 do
    a.(i) <- a.(i - 1) * 10
  done;
  a

(* 10^i for i = 0 .. 22, every power a double holds exactly. *)
let pow10f =
  let a = Array.make 23 1. in
  for i = 1 to 22 do
    a.(i) <- a.(i - 1) *. 10.
  done;
  a

let rec ndigits d = if d < 10 then 1 else 1 + ndigits (d / 10)

(* "00" .. "99", two bytes each. *)
let digit_pairs =
  String.init 200 (fun i ->
      Char.chr (48 + if i land 1 = 0 then i / 20 else i / 2 mod 10))

(* The [n] low decimal digits of [d >= 0], zero-padded, into
   [b.[pos]] .. [b.[pos + n - 1]]: two per division, from the right. *)
let put_digits b pos d n =
  let d = ref d and i = ref (pos + n) in
  while !i - pos >= 2 do
    let q = !d / 100 in
    let r = 2 * (!d - (q * 100)) in
    i := !i - 2;
    Bytes.unsafe_set b !i (String.unsafe_get digit_pairs r);
    Bytes.unsafe_set b (!i + 1) (String.unsafe_get digit_pairs (r + 1));
    d := q
  done;
  if !i > pos then Bytes.unsafe_set b pos (Char.unsafe_chr (48 + (!d mod 10)))

let min_int_text = string_of_int min_int

(* [string_of_int i]'s bytes (at most 20) from [b.[pos]]; returns their
   end. *)
let put_int b pos i =
  if i = min_int then begin
    Bytes.blit_string min_int_text 0 b pos (String.length min_int_text);
    pos + String.length min_int_text
  end
  else
    let pos =
      if i < 0 then begin
        Bytes.unsafe_set b pos '-';
        pos + 1
      end
      else pos
    in
    let a = abs i in
    let n = ndigits a in
    put_digits b pos a n;
    pos + n

(* Through a scratch, as a Buffer has no room to write into; sized
   exactly for the key builders' non-negative ints. *)
let add_int buf i =
  let b = Bytes.create (if i < 0 then 20 else ndigits i) in
  Buffer.add_subbytes buf b 0 (put_int b 0 i)

(* C's [%.<p>g] layout of the [p]-digit significand [d] times
   10^(x-p+1): trailing zeros dropped, positional when -4 <= x < p,
   otherwise d.ddde±XX.  The digits go in place, then the leading ones
   shift left over the slot the point takes. *)
let put_g w p d x =
  let d = ref d and nd = ref p in
  while !nd > 1 && !d mod 10 = 0 do
    d := !d / 10;
    decr nd
  done;
  let d = !d and nd = !nd in
  let b = w.bytes and pos = w.len in
  if x < -4 || x >= p then begin
    put_digits b (pos + 1) d nd;
    Bytes.unsafe_set b pos (Bytes.unsafe_get b (pos + 1));
    let e = if nd > 1 then pos + nd + 1 else pos + 1 in
    if nd > 1 then Bytes.unsafe_set b (pos + 1) '.';
    Bytes.unsafe_set b e 'e';
    Bytes.unsafe_set b (e + 1) (if x < 0 then '-' else '+');
    let ax = abs x in
    let ne = Stdlib.max 2 (ndigits ax) in
    put_digits b (e + 2) ax ne;
    w.len <- e + 2 + ne
  end
  else if x >= 0 then begin
    if nd <= x + 1 then begin
      put_digits b pos d nd;
      Bytes.fill b (pos + nd) (x + 1 - nd) '0';
      w.len <- pos + x + 1
    end
    else begin
      put_digits b (pos + 1) d nd;
      Bytes.blit b (pos + 1) b pos (x + 1);
      Bytes.unsafe_set b (pos + x + 1) '.';
      w.len <- pos + nd + 1
    end
  end
  else begin
    Bytes.unsafe_set b pos '0';
    Bytes.unsafe_set b (pos + 1) '.';
    Bytes.fill b (pos + 2) (-x - 1) '0';
    put_digits b (pos + 1 - x) d nd;
    w.len <- pos + 1 - x + nd
  end

(* The exact window: normal doubles with 2^exact_lo <= |f| < 2^(exact_hi+1),
   about 1.5e-11 to 1.1e12.  There the decimal exponent floor(log10 |f|)
   lies in [-11, 12], the digits come from |f|·10^k = m·5^k / 2^s with
   k in [5, 27] (5^k fits three limbs), and the 12-digit round-trip test
   scales by at most 10^22, the largest power of ten a double holds
   exactly.  Outside it the Printf rule runs. *)
let exact_lo = -36
let exact_hi = 39

(* 31-bit limbs: a limb product plus two limbs of carry fits an OCaml int. *)
let mask31 = (1 lsl 31) - 1

(* 5^k for k = 0 .. 27 as three little-endian limbs. *)
let pow5_limbs =
  let a = Array.make (3 * 28) 0 in
  let l0 = ref 1 and l1 = ref 0 and l2 = ref 0 in
  for k = 0 to 27 do
    a.(3 * k) <- !l0;
    a.((3 * k) + 1) <- !l1;
    a.((3 * k) + 2) <- !l2;
    let c0 = !l0 * 5 in
    let c1 = (!l1 * 5) + (c0 lsr 31) in
    l0 := c0 land mask31;
    l1 := c1 land mask31;
    l2 := (!l2 * 5) + (c1 lsr 31)
  done;
  a

(* floor(B / 2^s) for B = b0 + b1·2^31 + b2·2^62 + b3·2^93 and s < 62,
   when the quotient is below 2^62. *)
let shift_right b0 b1 b2 b3 s =
  if s < 31 then (b0 lsr s) lor (b1 lsl (31 - s)) lor (b2 lsl (62 - s))
  else
    let o = s - 31 in
    (b1 lsr o) lor (b2 lsl (31 - o)) lor (b3 lsl (62 - o))

(* Whether B mod 2^s <> 0, for s < 62. *)
let low_bits b0 b1 s =
  if s < 31 then b0 land ((1 lsl s) - 1) <> 0
  else b0 <> 0 || b1 land ((1 lsl (s - 31)) - 1) <> 0

(* [t] with its [j] low decimal digits dropped, rounded half to even.
   [t] is the integer part of the exact value; [half] is the first
   fractional bit and [rest] whether any later one is set. *)
let round_drop t ~half ~rest j =
  if j = 0 then if half && (rest || t land 1 = 1) then t + 1 else t
  else
    let p = pow10.(j) in
    let q = t / p and r = t mod p in
    let hp = p / 2 in
    if r > hp || (r = hp && (half || rest || q land 1 = 1)) then q + 1 else q

(* [f] = ±m·2^(e2-52) with 2^52 <= m < 2^53 and e2 in the window. *)
let put_exact w f ~m ~e2 =
  if f < 0. then put_char w '-';
  let a = Float.abs f in
  (* floor(e2·log10 2), exact over the window; X is x0 or x0 + 1. *)
  let x0 = (e2 * 78913) asr 18 in
  let k = 16 - x0 in
  (* B = m·5^k, so that |f|·10^k = B / 2^s. *)
  let s = 52 - e2 - k in
  let m0 = m land mask31 and m1 = m lsr 31 in
  let p0 = pow5_limbs.(3 * k)
  and p1 = pow5_limbs.((3 * k) + 1)
  and p2 = pow5_limbs.((3 * k) + 2) in
  (* Column sums stay below 2^63, so [lsr] reads them unsigned. *)
  let c = m0 * p0 in
  let b0 = c land mask31 in
  let c = (m0 * p1) + (m1 * p0) + (c lsr 31) in
  let b1 = c land mask31 in
  let c = (m0 * p2) + (m1 * p1) + (c lsr 31) in
  let b2 = c land mask31 in
  let b3 = (m1 * p2) + (c lsr 31) in
  (* Integer part t (17 or 18 digits), first fractional bit, the rest. *)
  let t2 = shift_right b0 b1 b2 b3 (s - 1) in
  let t = t2 lsr 1 and half = t2 land 1 = 1 in
  let rest = low_bits b0 b1 (s - 1) in
  let wide = t >= pow10.(17) in
  let x = if wide then x0 + 1 else x0 in
  let nd = if wide then 18 else 17 in
  let d12 = round_drop t ~half ~rest (nd - 12) in
  let carry = d12 = pow10.(12) in
  let x12 = if carry then x + 1 else x in
  let d12 = if carry then pow10.(11) else d12 in
  (* Clinger: d12 < 2^53 and 10^|q| are exact, so one IEEE operation
     rounds d12·10^q exactly as strtod would. *)
  let q = x12 - 11 in
  let back =
    if q >= 0 then float_of_int d12 *. pow10f.(q)
    else float_of_int d12 /. pow10f.(-q)
  in
  if back = a then put_g w 12 d12 x12
  else
    let d17 = round_drop t ~half ~rest (nd - 17) in
    let carry = d17 = pow10.(17) in
    put_g w 17
      (if carry then pow10.(16) else d17)
      (if carry then x + 1 else x)

(* Integral |f| < 1e15: C's "%.1f", i.e. the integer and ".0". *)
let put_integral w f =
  if Float.sign_bit f then put_char w '-';
  let i = int_of_float (Float.abs f) in
  w.len <- put_int w.bytes w.len i;
  put_char w '.';
  put_char w '0'

(* The values put_float cannot render exactly: "%.12g" when strtod reads
   it back as [f], else "%.17g". *)
let put_printf w f =
  let s = Printf.sprintf "%.12g" f in
  add_literal w (if float_of_string s = f then s else Printf.sprintf "%.17g" f)

(* "%.1f" for integral |f| < 1e15, else the shortest of "%.12g" and
   "%.17g" that round-trips; non-finite floats are [null].  Task keys,
   cache entries and store checksums hash these bytes, so they never
   change.  No rendering is longer than 24 bytes. *)
let put_float w f =
  reserve w 32;
  if not (Float.is_finite f) then put_string w "null"
  else if Float.is_integer f && Float.abs f < 1e15 then put_integral w f
  else
    let bits = Int64.to_int (Int64.bits_of_float f) in
    let e2 = ((bits lsr 52) land 0x7FF) - 1023 in
    if e2 < exact_lo || e2 > exact_hi then put_printf w f
    else put_exact w f ~e2 ~m:(bits land ((1 lsl 52) - 1) lor (1 lsl 52))

(* Copies the bytes of [s] from [i] on to [b] from [j] on, up to the
   first quote, backslash or control byte, whose index it returns. *)
let rec copy_plain s n b i j =
  if i = n then i
  else
    let c = String.unsafe_get s i in
    if c = '"' || c = '\\' || c < ' ' then i
    else begin
      Bytes.unsafe_set b j c;
      copy_plain s n b (i + 1) (j + 1)
    end

(* A string with nothing to escape is copied as it is scanned, into the
   room it takes unescaped.  At the first byte to escape, every byte
   left reserves six. *)
let escape w s =
  let n = String.length s in
  reserve w (n + 2);
  put_char w '"';
  let first = copy_plain s n w.bytes 0 w.len in
  w.len <- w.len + first;
  if first < n then begin
    reserve w ((6 * (n - first)) + 1);
    for i = first to n - 1 do
      match String.unsafe_get s i with
      | '"' -> put_string w "\\\""
      | '\\' -> put_string w "\\\\"
      | '\n' -> put_string w "\\n"
      | '\r' -> put_string w "\\r"
      | '\t' -> put_string w "\\t"
      | '\b' -> put_string w "\\b"
      | '\012' -> put_string w "\\f"
      | '\000' .. '\031' as c ->
          put_string w "\\u00";
          put_char w (if Char.code c < 16 then '0' else '1');
          put_char w "0123456789abcdef".[Char.code c land 15]
      | c -> put_char w c
    done
  end;
  put_char w '"'

let rec put_value w = function
  | Null -> add_literal w "null"
  | Bool b -> add_literal w (if b then "true" else "false")
  | Int i ->
      reserve w 20;
      w.len <- put_int w.bytes w.len i
  | Float f -> put_float w f
  | String s -> escape w s
  | List items ->
      add_char w '[';
      put_items w items;
      add_char w ']'
  | Obj fields ->
      add_char w '{';
      put_fields w fields;
      add_char w '}'

and put_items w = function
  | [] -> ()
  | [ item ] -> put_value w item
  | item :: items ->
      put_value w item;
      add_char w ',';
      put_items w items

and put_fields w = function
  | [] -> ()
  | [ field ] -> put_field w field
  | field :: fields ->
      put_field w field;
      add_char w ',';
      put_fields w fields

and put_field w (k, v) =
  escape w k;
  add_char w ':';
  put_value w v

let to_string v =
  let w = { bytes = Bytes.create 256; len = 0 } in
  put_value w v;
  Bytes.sub_string w.bytes 0 w.len

(* {1 Parsing} *)

exception Parse_error of string

type cursor = { s : string; mutable pos : int }

let error c msg =
  raise (Parse_error (Printf.sprintf "%s at offset %d" msg c.pos))

let at_end c = c.pos >= String.length c.s

(* The byte under the cursor; callers check [at_end] first. *)
let peek c = String.unsafe_get c.s c.pos

let rec ws_end s i =
  if i = String.length s then i
  else
    match String.unsafe_get s i with
    | ' ' | '\t' | '\n' | '\r' -> ws_end s (i + 1)
    | _ -> i

let skip_ws c = c.pos <- ws_end c.s c.pos

let expect c ch =
  if at_end c || peek c <> ch then error c (Printf.sprintf "expected %C" ch);
  c.pos <- c.pos + 1

let literal c word value =
  let l = String.length word in
  if c.pos + l > String.length c.s then error c ("expected " ^ word);
  for i = 0 to l - 1 do
    if String.unsafe_get c.s (c.pos + i) <> word.[i] then
      error c ("expected " ^ word)
  done;
  c.pos <- c.pos + l;
  value

let hex_digit ch =
  match ch with
  | '0' .. '9' -> Char.code ch - 48
  | 'a' .. 'f' -> Char.code ch - 87
  | 'A' .. 'F' -> Char.code ch - 55
  | _ -> -1

(* Exactly four hex digits after "\u". *)
let hex4 c =
  if c.pos + 4 > String.length c.s then error c "truncated \\u escape";
  let v = ref 0 in
  for i = 0 to 3 do
    let d = hex_digit (String.unsafe_get c.s (c.pos + i)) in
    if d < 0 then error c "bad \\u escape";
    v := (!v * 16) + d
  done;
  c.pos <- c.pos + 4;
  !v

(* One "\u" escape, the backslash and 'u' already consumed: a BMP code
   point, or a surrogate pair combined into one supplementary one. *)
let unicode_escape c buf =
  let u = hex4 c in
  let code =
    if u >= 0xD800 && u <= 0xDBFF then begin
      if
        c.pos + 2 <= String.length c.s
        && peek c = '\\'
        && String.unsafe_get c.s (c.pos + 1) = 'u'
      then c.pos <- c.pos + 2
      else error c "unpaired surrogate";
      let lo = hex4 c in
      if lo < 0xDC00 || lo > 0xDFFF then error c "unpaired surrogate";
      0x10000 + ((u - 0xD800) lsl 10) + (lo - 0xDC00)
    end
    else if u >= 0xDC00 && u <= 0xDFFF then error c "unpaired surrogate"
    else u
  in
  Buffer.add_utf_8_uchar buf (Uchar.unsafe_of_int code)

(* The end of the run of string content from [i]: the quote, a
   backslash, or a control byte RFC 8259 forbids raw ends it. *)
let rec plain_end s i =
  if i = String.length s then i
  else
    let ch = String.unsafe_get s i in
    if ch = '"' || ch = '\\' || ch < ' ' then i else plain_end s (i + 1)

let skip_plain c = c.pos <- plain_end c.s c.pos

let rec escaped_string c buf =
  let run = c.pos in
  skip_plain c;
  Buffer.add_substring buf c.s run (c.pos - run);
  if at_end c then error c "unterminated string";
  match peek c with
  | '"' ->
      c.pos <- c.pos + 1;
      Buffer.contents buf
  | '\\' ->
      c.pos <- c.pos + 1;
      if at_end c then error c "unterminated escape";
      let e = peek c in
      c.pos <- c.pos + 1;
      (match e with
      | '"' -> Buffer.add_char buf '"'
      | '\\' -> Buffer.add_char buf '\\'
      | '/' -> Buffer.add_char buf '/'
      | 'n' -> Buffer.add_char buf '\n'
      | 'r' -> Buffer.add_char buf '\r'
      | 't' -> Buffer.add_char buf '\t'
      | 'b' -> Buffer.add_char buf '\b'
      | 'f' -> Buffer.add_char buf '\012'
      | 'u' -> unicode_escape c buf
      | _ -> error c "unknown escape");
      escaped_string c buf
  | _ -> error c "control character in string"

(* A string with no escapes is one slice of the input. *)
let string_lit c =
  expect c '"';
  let start = c.pos in
  skip_plain c;
  if (not (at_end c)) && peek c = '"' then begin
    c.pos <- c.pos + 1;
    String.sub c.s start (c.pos - 1 - start)
  end
  else begin
    let buf = Buffer.create (c.pos - start + 16) in
    c.pos <- start;
    escaped_string c buf
  end

let is_digit ch = ch >= '0' && ch <= '9'

(* At least one digit; returns how many. *)
let digits c what =
  let s = c.s and start = c.pos in
  let i = ref start in
  while !i < String.length s && is_digit (String.unsafe_get s !i) do
    incr i
  done;
  c.pos <- !i;
  if !i = start then error c ("expected a digit " ^ what);
  !i - start

(* RFC 8259: an optional '-', then 0 or a digit run without a leading
   zero, then optionally '.' and digits, then optionally e or E, a sign
   and digits.  An integral literal that fits is an [Int]; anything else a
   finite [Float]. *)
let number c =
  let start = c.pos in
  let negative = peek c = '-' in
  if negative then c.pos <- c.pos + 1;
  let int_start = c.pos in
  let n_int =
    if (not (at_end c)) && peek c = '0' then begin
      c.pos <- c.pos + 1;
      1
    end
    else digits c "in the number"
  in
  let integral = ref true in
  if (not (at_end c)) && peek c = '.' then begin
    integral := false;
    c.pos <- c.pos + 1;
    ignore (digits c "after '.'")
  end;
  if (not (at_end c)) && (peek c = 'e' || peek c = 'E') then begin
    integral := false;
    c.pos <- c.pos + 1;
    if (not (at_end c)) && (peek c = '+' || peek c = '-') then
      c.pos <- c.pos + 1;
    ignore (digits c "in the exponent")
  end;
  if !integral && n_int <= 18 then begin
    let v = ref 0 in
    for i = int_start to c.pos - 1 do
      v := (!v * 10) + (Char.code (String.unsafe_get c.s i) - 48)
    done;
    Int (if negative then - !v else !v)
  end
  else
    let text = String.sub c.s start (c.pos - start) in
    match if !integral then int_of_string_opt text else None with
    | Some i -> Int i
    | None ->
        let f = float_of_string text in
        if Float.is_finite f then Float f
        else error c (Printf.sprintf "number %s out of range" text)

let rec value c =
  skip_ws c;
  if at_end c then error c "unexpected end of input";
  match peek c with
  | '"' -> String (string_lit c)
  | 'n' -> literal c "null" Null
  | 't' -> literal c "true" (Bool true)
  | 'f' -> literal c "false" (Bool false)
  | '[' ->
      c.pos <- c.pos + 1;
      skip_ws c;
      if (not (at_end c)) && peek c = ']' then begin
        c.pos <- c.pos + 1;
        List []
      end
      else List (items c [])
  | '{' ->
      c.pos <- c.pos + 1;
      skip_ws c;
      if (not (at_end c)) && peek c = '}' then begin
        c.pos <- c.pos + 1;
        Obj []
      end
      else Obj (fields c [])
  | '-' | '0' .. '9' -> number c
  | ch -> error c (Printf.sprintf "unexpected character %C" ch)

and items c acc =
  let v = value c in
  skip_ws c;
  if at_end c then error c "expected ',' or ']'";
  match peek c with
  | ',' ->
      c.pos <- c.pos + 1;
      items c (v :: acc)
  | ']' ->
      c.pos <- c.pos + 1;
      List.rev (v :: acc)
  | _ -> error c "expected ',' or ']'"

and fields c acc =
  skip_ws c;
  let k = string_lit c in
  skip_ws c;
  expect c ':';
  let v = value c in
  skip_ws c;
  if at_end c then error c "expected ',' or '}'";
  match peek c with
  | ',' ->
      c.pos <- c.pos + 1;
      fields c ((k, v) :: acc)
  | '}' ->
      c.pos <- c.pos + 1;
      List.rev ((k, v) :: acc)
  | _ -> error c "expected ',' or '}'"

let parse s =
  let c = { s; pos = 0 } in
  let v = value c in
  skip_ws c;
  if not (at_end c) then error c "trailing garbage";
  v

let rec find_field key = function
  | [] -> None
  | (k, v) :: fields ->
      if String.equal k key then Some v else find_field key fields

let member key = function Obj fields -> find_field key fields | _ -> None

let to_float_opt = function
  | Int i -> Some (float_of_int i)
  | Float f -> Some f
  | _ -> None
