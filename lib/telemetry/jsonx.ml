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

external get64u : string -> int -> int64 = "%caml_string_get64u"
external set64u : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

(* A word at a time, the last word overlapping the one before, and byte
   by byte under a word.  Everything written here is short — keys,
   literals, escapes, a float's text — and on those this beats the C
   blit (EXPERIMENTS.md § Each writer edit timed). *)
let[@inline] put_string w s =
  let n = String.length s and b = w.bytes and pos = w.len in
  if n >= 8 then begin
    let i = ref 0 in
    while !i < n - 8 do
      set64u b (pos + !i) (get64u s !i);
      i := !i + 8
    done;
    set64u b (pos + n - 8) (get64u s (n - 8))
  end
  else
    for i = 0 to n - 1 do
      Bytes.unsafe_set b (pos + i) (String.unsafe_get s i)
    done;
  w.len <- pos + n

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

(* [n] ASCII zeros from [b.[pos]] on: at most a few, which a loop writes
   for less than a C call costs (as does [put_g]'s shift loop; both timed
   in EXPERIMENTS.md § Each writer edit timed). *)
let put_zeros b pos n =
  for i = pos to pos + n - 1 do
    Bytes.unsafe_set b i '0'
  done

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
      put_zeros b (pos + nd) (x + 1 - nd);
      w.len <- pos + x + 1
    end
    else begin
      put_digits b (pos + 1) d nd;
      for i = pos to pos + x do
        Bytes.unsafe_set b i (Bytes.unsafe_get b (i + 1))
      done;
      Bytes.unsafe_set b (pos + x + 1) '.';
      w.len <- pos + nd + 1
    end
  end
  else begin
    Bytes.unsafe_set b pos '0';
    Bytes.unsafe_set b (pos + 1) '.';
    put_zeros b (pos + 2) (-x - 1);
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
  else
    (* The bits without the sign: exponent and fraction. *)
    let bits = Int64.to_int (Int64.bits_of_float f) in
    let e2 = ((bits lsr 52) land 0x7FF) - 1023 in
    let frac = bits land ((1 lsl 52) - 1) in
    (* [Float.is_integer f], read off the bits: zero, or no fraction bit
       below the binary point. *)
    let integral =
      bits = 0 || e2 >= 52 || (e2 >= 0 && frac land ((1 lsl (52 - e2)) - 1) = 0)
    in
    if integral && Float.abs f < 1e15 then put_integral w f
    else if e2 < exact_lo || e2 > exact_hi then put_printf w f
    else put_exact w f ~e2 ~m:(frac lor (1 lsl 52))

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

let writer () = { bytes = Bytes.create 256; len = 0 }
let write = put_value
let write_float = put_float
let write_string = escape
let write_raw = add_literal
let contents w = Bytes.sub_string w.bytes 0 w.len

let to_string v =
  let w = writer () in
  put_value w v;
  contents w

(* {1 Parsing} *)

exception Parse_error of string

type cursor = { s : string; mutable pos : int }

let error c msg =
  raise (Parse_error (Printf.sprintf "%s at offset %d" msg c.pos))

let[@inline] at_end c = c.pos >= String.length c.s

(* The byte under the cursor; callers check [at_end] first. *)
let[@inline] peek c = String.unsafe_get c.s c.pos

let rec ws_end s i =
  if i = String.length s then i
  else
    match String.unsafe_get s i with
    | ' ' | '\t' | '\n' | '\r' -> ws_end s (i + 1)
    | _ -> i

(* Every whitespace byte is at most ' ', so one compare settles the
   common case of none without a call. *)
let[@inline] skip_ws c =
  let i = c.pos in
  if i >= String.length c.s || String.unsafe_get c.s i <= ' ' then
    c.pos <- ws_end c.s i

let expected c ch = error c (Printf.sprintf "expected %C" ch)

let[@inline] expect c ch =
  if at_end c || peek c <> ch then expected c ch;
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
let[@inline] plain_run s i =
  let i = ref i in
  while
    !i < String.length s
    &&
    let ch = String.unsafe_get s !i in
    ch <> '"' && ch <> '\\' && ch >= ' '
  do
    incr i
  done;
  !i

let skip_plain c = c.pos <- plain_run c.s c.pos

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

let[@inline] is_digit ch = ch >= '0' && ch <= '9'

(* At least one digit. *)
let digits c what =
  let s = c.s and start = c.pos in
  let i = ref start in
  while !i < String.length s && is_digit (String.unsafe_get s !i) do
    incr i
  done;
  c.pos <- !i;
  if !i = start then error c ("expected a digit " ^ what)

(* The end of the number at the cursor when it is an [Int] — integral
   (no fraction or exponent) and in range — else -1. *)
let[@inline] int_end c =
  let s = c.s and n = String.length c.s in
  let i = c.pos in
  let j = if i < n && String.unsafe_get s i = '-' then i + 1 else i in
  if j >= n || not (is_digit (String.unsafe_get s j)) then -1
  else begin
    let k = ref (j + 1) in
    if String.unsafe_get s j <> '0' then
      while !k < n && is_digit (String.unsafe_get s !k) do
        incr k
      done;
    let k = !k in
    if k < n && (match String.unsafe_get s k with '.' | 'e' | 'E' -> true | _ -> false)
    then -1
    else if k - j <= 18 then k
    else
      match int_of_string_opt (String.sub s i (k - i)) with
      | Some _ -> k
      | None -> -1
  end

(* The [Int] from the cursor to [k], [int_end]'s answer. *)
let int_upto c k =
  let s = c.s and i = c.pos in
  c.pos <- k;
  let negative = String.unsafe_get s i = '-' in
  let j = if negative then i + 1 else i in
  if k - j <= 18 then begin
    let v = ref 0 in
    for d = j to k - 1 do
      v := (!v * 10) + (Char.code (String.unsafe_get s d) - 48)
    done;
    if negative then - !v else !v
  end
  else int_of_string (String.sub s i (k - i))

(* RFC 8259: an optional '-', then 0 or a digit run without a leading
   zero, then optionally '.' and digits, then optionally e or E, a sign
   and digits.  An integral literal that fits is an [Int]; anything else a
   finite [Float]. *)
let number c =
  let k = int_end c in
  if k >= 0 then Int (int_upto c k)
  else begin
    let start = c.pos in
    if peek c = '-' then c.pos <- c.pos + 1;
    if (not (at_end c)) && peek c = '0' then c.pos <- c.pos + 1
    else digits c "in the number";
    if (not (at_end c)) && peek c = '.' then begin
      c.pos <- c.pos + 1;
      digits c "after '.'"
    end;
    if (not (at_end c)) && (peek c = 'e' || peek c = 'E') then begin
      c.pos <- c.pos + 1;
      if (not (at_end c)) && (peek c = '+' || peek c = '-') then
        c.pos <- c.pos + 1;
      digits c "in the exponent"
    end;
    let text = String.sub c.s start (c.pos - start) in
    let f = float_of_string text in
    if Float.is_finite f then Float f
    else error c (Printf.sprintf "number %s out of range" text)
  end

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

let finish c =
  skip_ws c;
  if not (at_end c) then error c "trailing garbage"

let parse s =
  let c = { s; pos = 0 } in
  let v = value c in
  finish c;
  v

(* {1 Reading in place}

   The reader walks the grammar [value] walks, in the same order, and
   raises the same errors at the same offsets; what it adds is reading a
   value without building it.  Each function below reads one whole value
   or, where it says so, nothing but whitespace, leaving the value to
   [value]. *)

type reader = cursor

let reader s = { s; pos = 0 }

(* The index of the name that the [len] bytes of [s] from [start]
   spell, or -1. *)
let find_name s start len names =
  let found = ref (-1) and i = ref 0 in
  while !found < 0 && !i < Array.length names do
    let name = Array.unsafe_get names !i in
    if String.length name = len then begin
      let j = ref 0 in
      while
        !j < len
        && String.unsafe_get s (start + !j) = String.unsafe_get name !j
      do
        incr j
      done;
      if !j = len then found := !i
    end;
    incr i
  done;
  !found

(* Reads a string; the index of the name it decodes to, or -1.  An
   escape-free string is matched where it lies. *)
let[@inline] string_index c names =
  expect c '"';
  let s = c.s and start = c.pos in
  let e = plain_run s start in
  if e < String.length s && String.unsafe_get s e = '"' then begin
    c.pos <- e + 1;
    find_name s start (e - start) names
  end
  else
    let k = escaped_string c (Buffer.create (e - start + 16)) in
    find_name k 0 (String.length k) names

let fields c keys f =
  (* [seen] holds one bit per key. *)
  if Array.length keys > 62 then invalid_arg "Jsonx.fields: more than 62 keys";
  skip_ws c;
  if at_end c || peek c <> '{' then ignore (value c)
  else begin
    c.pos <- c.pos + 1;
    skip_ws c;
    if (not (at_end c)) && peek c = '}' then c.pos <- c.pos + 1
    else begin
      let seen = ref 0 and open_ = ref true in
      while !open_ do
        skip_ws c;
        let i = string_index c keys in
        skip_ws c;
        expect c ':';
        if i >= 0 && !seen land (1 lsl i) = 0 then begin
          seen := !seen lor (1 lsl i);
          f i
        end
        else ignore (value c);
        skip_ws c;
        if at_end c then error c "expected ',' or '}'";
        match peek c with
        | ',' -> c.pos <- c.pos + 1
        | '}' ->
            c.pos <- c.pos + 1;
            open_ := false
        | _ -> error c "expected ',' or '}'"
      done
    end
  end

let items c f =
  skip_ws c;
  if at_end c || peek c <> '[' then false
  else begin
    c.pos <- c.pos + 1;
    skip_ws c;
    if (not (at_end c)) && peek c = ']' then c.pos <- c.pos + 1
    else begin
      let open_ = ref true in
      while !open_ do
        f ();
        skip_ws c;
        if at_end c then error c "expected ',' or ']'";
        match peek c with
        | ',' -> c.pos <- c.pos + 1
        | ']' ->
            c.pos <- c.pos + 1;
            open_ := false
        | _ -> error c "expected ',' or ']'"
      done
    end;
    true
  end

let is_int c =
  skip_ws c;
  int_end c >= 0

let int c =
  skip_ws c;
  let k = int_end c in
  if k < 0 then error c "expected an integer";
  int_upto c k

(* An escaped string is decoded to be matched; a malformed one is left
   for [value] to refuse. *)
let name c names =
  skip_ws c;
  if at_end c || peek c <> '"' then -1
  else
    let s = c.s and start = c.pos in
    let e = plain_run s (start + 1) in
    let i =
      if e < String.length s && String.unsafe_get s e = '"' then begin
        let i = find_name s (start + 1) (e - start - 1) names in
        if i >= 0 then c.pos <- e + 1;
        i
      end
      else
        match string_lit c with
        | k -> find_name k 0 (String.length k) names
        | exception Parse_error _ -> -1
    in
    if i < 0 then c.pos <- start;
    i

let rec find_field key = function
  | [] -> None
  | (k, v) :: fields ->
      if String.equal k key then Some v else find_field key fields

let member key = function Obj fields -> find_field key fields | _ -> None

let to_float_opt = function
  | Int i -> Some (float_of_int i)
  | Float f -> Some f
  | _ -> None
