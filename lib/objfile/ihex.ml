exception Parse_error of { line : int; message : string }

let parse_error line fmt = Printf.ksprintf (fun message -> raise (Parse_error { line; message })) fmt

let hex_digits = "0123456789ABCDEF"

let add_hex_byte buf b =
  Buffer.add_char buf (String.unsafe_get hex_digits ((b lsr 4) land 0xF));
  Buffer.add_char buf (String.unsafe_get hex_digits (b land 0xF))

(* One record carrying [data.[pos .. pos + len - 1]]. *)
let record buf ~addr ~rtype data pos len =
  let addr = addr land 0xFFFF in
  Buffer.add_char buf ':';
  add_hex_byte buf len;
  add_hex_byte buf (addr lsr 8);
  add_hex_byte buf addr;
  add_hex_byte buf rtype;
  let sum = ref (len + (addr lsr 8) + (addr land 0xFF) + rtype) in
  for i = pos to pos + len - 1 do
    let b = Char.code (String.unsafe_get data i) in
    sum := !sum + b;
    add_hex_byte buf b
  done;
  add_hex_byte buf ((0x100 - (!sum land 0xFF)) land 0xFF);
  Buffer.add_char buf '\n'

let encode segments =
  (* Sized for the output (44 characters per full 16-byte record) so
     that the buffer is not regrown and copied as it fills. *)
  let bytes = List.fold_left (fun n (_, d) -> n + String.length d) 0 segments in
  let buf = Buffer.create (max 4096 (3 * bytes)) in
  let upper = ref 0 in
  let emit_data addr data =
    let n = String.length data in
    let pos = ref 0 in
    while !pos < n do
      let a = addr + !pos in
      let hi = a lsr 16 in
      if hi <> !upper then begin
        upper := hi;
        record buf ~addr:0 ~rtype:4
          (Printf.sprintf "%c%c" (Char.chr ((hi lsr 8) land 0xFF)) (Char.chr (hi land 0xFF)))
          0 2
      end;
      (* Do not let a record cross a 64 KB boundary. *)
      let chunk = min 16 (min (n - !pos) (0x10000 - (a land 0xFFFF))) in
      record buf ~addr:(a land 0xFFFF) ~rtype:0 data !pos chunk;
      pos := !pos + chunk
    done
  in
  List.iter (fun (addr, data) -> emit_data addr data) segments;
  record buf ~addr:0 ~rtype:1 "" 0 0;
  Buffer.contents buf

(* Digit value by character code; 0xFF marks a non-digit. *)
let nibble_values =
  String.init 256 (fun i ->
      match Char.chr i with
      | '0' .. '9' -> Char.chr (i - Char.code '0')
      | 'A' .. 'F' -> Char.chr (i - Char.code 'A' + 10)
      | 'a' .. 'f' -> Char.chr (i - Char.code 'a' + 10)
      | _ -> '\xff')

let hex_nibble line c =
  let v = Char.code (String.unsafe_get nibble_values (Char.code c)) in
  if v = 0xFF then parse_error line "bad hex digit %C" c else v

(* The characters [String.trim] strips. *)
let is_space = function ' ' | '\012' | '\n' | '\r' | '\t' -> true | _ -> false

(* One pass over the text, line by line, without splitting it; each
   record's bytes are parsed once into [bytes].  Lines after the EOF
   record are not read. *)
let decode text =
  let n = String.length text in
  let bytes = Bytes.create 260 (* the longest record: 255 data bytes + 5 *) in
  let upper = ref 0 in
  let chunks = ref [] (* (addr, data), newest first *) in
  let saw_eof = ref false in
  let line = ref 0 in
  let pos = ref 0 in
  while (not !saw_eof) && !pos <= n do
    incr line;
    let line = !line in
    let eol = Option.value (String.index_from_opt text !pos '\n') ~default:n in
    let first = ref !pos and last = ref (eol - 1) in
    while !first <= !last && is_space text.[!first] do incr first done;
    while !last > !first && is_space text.[!last] do decr last done;
    pos := eol + 1;
    if !first <= !last then begin
      let s = !first in
      if text.[s] <> ':' then parse_error line "record does not start with ':'";
      (* Hex digits after the colon. *)
      let digits = !last - s in
      if digits land 1 <> 0 then parse_error line "odd hex length";
      let nbytes = digits / 2 in
      if nbytes < 5 then parse_error line "record too short";
      let sum = ref 0 in
      for i = 0 to nbytes - 1 do
        let b =
          (hex_nibble line text.[s + 1 + (2 * i)] lsl 4) lor hex_nibble line text.[s + 2 + (2 * i)]
        in
        (* A longer line fails the length check below. *)
        if i < Bytes.length bytes then Bytes.unsafe_set bytes i (Char.unsafe_chr b);
        sum := (!sum + b) land 0xFF
      done;
      if !sum <> 0 then parse_error line "checksum mismatch";
      let byte i = Char.code (Bytes.get bytes i) in
      let len = byte 0 in
      if nbytes <> len + 5 then parse_error line "length field mismatch";
      let addr = (byte 1 lsl 8) lor byte 2 in
      let rtype = byte 3 in
      match rtype with
      | 0 -> chunks := ((!upper lsl 16) lor addr, Bytes.sub_string bytes 4 len) :: !chunks
      | 1 -> saw_eof := true
      | 4 ->
          if len <> 2 then parse_error line "type-04 record must have 2 data bytes";
          upper := (byte 4 lsl 8) lor byte 5
      | 2 | 3 | 5 -> parse_error line "unsupported record type %d" rtype
      | _ -> parse_error line "unknown record type %d" rtype
    end
  done;
  if not !saw_eof then parse_error !line "missing end-of-file record";
  (* Merge contiguous chunks into maximal segments, tracking each open
     segment's end address. *)
  let sorted = List.stable_sort (fun (a, _) (b, _) -> Int.compare a b) (List.rev !chunks) in
  let rec merge acc = function
    | [] -> List.rev acc
    | (addr, data) :: rest -> (
        let stop = addr + String.length data in
        match acc with
        | (base, prev_stop, parts) :: acc_rest when prev_stop = addr ->
            merge ((base, stop, data :: parts) :: acc_rest) rest
        | _ -> merge ((addr, stop, [ data ]) :: acc) rest)
  in
  List.map (fun (base, _, parts) -> (base, String.concat "" (List.rev parts))) (merge [] sorted)

let flatten ?(fill = '\xff') ?limit segments =
  let visible = match limit with
    | None -> segments
    | Some l -> List.filter (fun (a, _) -> a < l) segments
  in
  let extent =
    List.fold_left (fun m (a, d) -> max m (a + String.length d)) 0 visible
  in
  let extent = match limit with Some l -> min extent l | None -> extent in
  let out = Bytes.make extent fill in
  List.iter
    (fun (a, d) ->
      let len = min (String.length d) (extent - a) in
      if len > 0 then Bytes.blit_string d 0 out a len)
    visible;
  Bytes.to_string out
