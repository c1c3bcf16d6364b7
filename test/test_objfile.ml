module Ihex = Mavr_obj.Ihex
module Image = Mavr_obj.Image
module Symtab = Mavr_obj.Symtab

let test_ihex_simple_roundtrip () =
  let data = String.init 100 (fun i -> Char.chr (i land 0xFF)) in
  let hex = Ihex.encode [ (0, data) ] in
  match Ihex.decode hex with
  | [ (0, d) ] -> Alcotest.(check string) "roundtrip" data d
  | segs -> Alcotest.failf "unexpected segments: %d" (List.length segs)

let test_ihex_crosses_64k () =
  (* Images above 64 KB need type-04 extended address records. *)
  let data = String.init 200 (fun i -> Char.chr (i land 0xFF)) in
  let base = 0xFFE0 in
  let hex = Ihex.encode [ (base, data) ] in
  Alcotest.(check bool) "has type-04 record" true
    (String.split_on_char '\n' hex |> List.exists (fun l -> String.length l > 8 && String.sub l 7 2 = "04"));
  match Ihex.decode hex with
  | [ (b, d) ] ->
      Alcotest.(check int) "base preserved" base b;
      Alcotest.(check string) "data preserved" data d
  | segs -> Alcotest.failf "unexpected segments: %d" (List.length segs)

let test_ihex_multi_segment () =
  let hex = Ihex.encode [ (0x800000, "META"); (0, "CODE") ] in
  let segs = Ihex.decode hex in
  Alcotest.(check int) "two segments" 2 (List.length segs);
  Alcotest.(check string) "code first (ascending)" "CODE" (snd (List.hd segs));
  Alcotest.(check string) "meta second" "META" (snd (List.nth segs 1))

let test_ihex_bad_checksum () =
  let hex = Ihex.encode [ (0, "hello world") ] in
  (* Corrupt one data nibble. *)
  let bad = Bytes.of_string hex in
  Bytes.set bad 10 (if Bytes.get bad 10 = '0' then '1' else '0');
  match Ihex.decode (Bytes.to_string bad) with
  | _ -> Alcotest.fail "expected checksum error"
  | exception Ihex.Parse_error _ -> ()

let test_ihex_missing_eof () =
  match Ihex.decode ":0100000001FE\n" (* data record only, no EOF *) with
  | _ -> Alcotest.fail "expected missing-EOF error"
  | exception Ihex.Parse_error _ -> ()

(* The original Printf-based encoder, kept as the oracle the buffer
   encoder must match byte for byte. *)
module Oracle = struct
  let record buf ~addr ~rtype data =
    let len = String.length data in
    let sum = ref (len + ((addr lsr 8) land 0xFF) + (addr land 0xFF) + rtype) in
    Buffer.add_char buf ':';
    Buffer.add_string buf (Printf.sprintf "%02X%04X%02X" len (addr land 0xFFFF) rtype);
    String.iter
      (fun c ->
        sum := !sum + Char.code c;
        Buffer.add_string buf (Printf.sprintf "%02X" (Char.code c)))
      data;
    Buffer.add_string buf (Printf.sprintf "%02X\n" ((0x100 - (!sum land 0xFF)) land 0xFF))

  let encode segments =
    let buf = Buffer.create 4096 in
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
        end;
        let chunk = min 16 (min (n - !pos) (0x10000 - (a land 0xFFFF))) in
        record buf ~addr:(a land 0xFFFF) ~rtype:0 (String.sub data !pos chunk);
        pos := !pos + chunk
      done
    in
    List.iter (fun (addr, data) -> emit_data addr data) segments;
    record buf ~addr:0 ~rtype:1 "";
    Buffer.contents buf

  (* One record line (with its newline) of the given type. *)
  let line ?(addr = 0) ~rtype data =
    let buf = Buffer.create 64 in
    record buf ~addr ~rtype data;
    Buffer.contents buf
end

(* A record line from raw bytes, with a correct checksum, so that the
   length field can disagree with the byte count. *)
let raw_line bytes =
  let sum = List.fold_left ( + ) 0 bytes in
  ":" ^ String.concat "" (List.map (Printf.sprintf "%02X") bytes)
  ^ Printf.sprintf "%02X\n" ((0x100 - (sum land 0xFF)) land 0xFF)

let eof = Oracle.line ~rtype:1 ""
let data_line = Oracle.line ~addr:0x10 ~rtype:0 "AB"

(* Segment sets with adjacent, gapped and 64 KB-crossing neighbours, in
   ascending order, optionally preceded by a MAVR metadata blob. *)
let gen_segments =
  let open QCheck.Gen in
  let gap = oneof [ return 0; int_range 1 40; int_range 1000 70_000 ] in
  let start = oneof [ int_bound 300; map (fun d -> 0x10000 - d) (int_range 1 40) ] in
  let payload = string_size ~gen:char (int_range 1 300) in
  let* meta = opt (string_size ~gen:char (int_range 1 200)) in
  let* base = start in
  let* parts = list_size (int_range 1 6) (pair gap payload) in
  let _, segs =
    List.fold_left
      (fun (at, acc) (g, d) -> (at + g + String.length d, (at + g, d) :: acc))
      (base, []) parts
  in
  let segs = List.rev segs in
  return (match meta with Some m -> (Symtab.meta_base, m) :: segs | None -> segs)

let arb_segments =
  QCheck.make gen_segments ~print:(fun segs ->
      String.concat "; "
        (List.map (fun (a, d) -> Printf.sprintf "0x%x+%d" a (String.length d)) segs))

let prop_encode_matches_oracle =
  QCheck.Test.make ~name:"encode is byte-identical to the Printf oracle" ~count:200
    arb_segments (fun segs -> Ihex.encode segs = Oracle.encode segs)

(* Sorted by address, with segments that touch joined. *)
let maximal segs =
  List.sort (fun (a, _) (b, _) -> compare a b) segs
  |> List.fold_left
       (fun acc (a, d) ->
         match acc with
         | (pa, pd) :: rest when pa + String.length pd = a -> (pa, pd ^ d) :: rest
         | _ -> (a, d) :: acc)
       []
  |> List.rev

let prop_decode_maximal =
  QCheck.Test.make ~name:"decode (encode segs) is the maximal merged segments" ~count:200
    arb_segments (fun segs -> Ihex.decode (Ihex.encode segs) = maximal segs)

let expect_error name text ~line ~message =
  match Ihex.decode text with
  | _ -> Alcotest.failf "%s: expected Parse_error" name
  | exception Ihex.Parse_error e ->
      Alcotest.(check (pair int string)) name (line, message) (e.line, e.message)

let test_ihex_malformed () =
  let bad_digit = String.mapi (fun i c -> if i = 9 then 'G' else c) data_line in
  expect_error "bad digit" (bad_digit ^ eof) ~line:1 ~message:"bad hex digit 'G'";
  let both = String.mapi (fun i c -> if i = 9 then 'G' else if i = 10 then 'z' else c) data_line in
  expect_error "bad digit, both nibbles" ("\n" ^ both ^ eof) ~line:2 ~message:"bad hex digit 'z'";
  expect_error "no colon" ("0100000041BE\n" ^ eof) ~line:1 ~message:"record does not start with ':'";
  expect_error "odd length" (":0100000041B\n" ^ eof) ~line:1 ~message:"odd hex length";
  expect_error "too short" (":00000001\n" ^ eof) ~line:1 ~message:"record too short";
  expect_error "too short beats bad digit" (":0000GG01\n") ~line:1 ~message:"record too short";
  let bad_sum = String.mapi (fun i c -> if i = 10 then (if c = '0' then '1' else '0') else c) data_line in
  expect_error "checksum" (data_line ^ bad_sum ^ eof) ~line:2 ~message:"checksum mismatch";
  expect_error "length mismatch" (raw_line [ 2; 0; 0; 0; 0x41 ] ^ eof) ~line:1
    ~message:"length field mismatch";
  (* Longer than any valid record: still checked digit by digit first. *)
  let long = raw_line (0x10 :: List.init 299 (fun _ -> 0)) in
  expect_error "overlong record" (long ^ eof) ~line:1 ~message:"length field mismatch";
  let long_bad = String.mapi (fun i c -> if i = 590 then 'x' else c) long in
  expect_error "overlong record, bad digit" (long_bad ^ eof) ~line:1
    ~message:"bad hex digit 'x'";
  List.iter
    (fun rtype ->
      expect_error
        (Printf.sprintf "type %d" rtype)
        (data_line ^ "\n" ^ Oracle.line ~rtype "\x10\x00\x00\x00" ^ eof)
        ~line:3
        ~message:(Printf.sprintf "unsupported record type %d" rtype))
    [ 2; 3; 5 ];
  expect_error "unknown type" (Oracle.line ~rtype:6 "" ^ eof) ~line:1
    ~message:"unknown record type 6";
  expect_error "type 4 length" (Oracle.line ~rtype:4 "\x00" ^ eof) ~line:1
    ~message:"type-04 record must have 2 data bytes";
  (* The missing-EOF line is the line count, so a trailing newline adds one. *)
  let no_newline = String.sub data_line 0 (String.length data_line - 1) in
  expect_error "missing EOF, no newline" no_newline ~line:1 ~message:"missing end-of-file record";
  expect_error "missing EOF, trailing newline" data_line ~line:2
    ~message:"missing end-of-file record";
  expect_error "missing EOF, blank tail" (data_line ^ "\n\n") ~line:4
    ~message:"missing end-of-file record";
  expect_error "missing EOF, empty text" "" ~line:1 ~message:"missing end-of-file record"

let test_ihex_lenient_layout () =
  let expected = [ (0x10, "AB") ] in
  let crlf s = String.concat "\r\n" (String.split_on_char '\n' s) in
  Alcotest.(check (list (pair int string))) "CRLF" expected (Ihex.decode (crlf (data_line ^ eof)));
  Alcotest.(check (list (pair int string))) "blank and padded lines" expected
    (Ihex.decode ("\n  \t\n  " ^ data_line ^ "\n\n" ^ eof));
  Alcotest.(check (list (pair int string))) "EOF without newline" expected
    (Ihex.decode (data_line ^ String.sub eof 0 (String.length eof - 1)));
  Alcotest.(check (list (pair int string))) "lines after EOF ignored" expected
    (Ihex.decode (data_line ^ eof ^ "garbage\n:GG\n" ^ Oracle.line ~rtype:0 "CD"))

let test_ihex_flatten () =
  let flat = Ihex.flatten ~fill:'\xff' [ (2, "AB"); (6, "C") ] in
  Alcotest.(check string) "gap filled" "\xff\xffAB\xff\xffC" flat;
  let flat = Ihex.flatten ~limit:4 [ (2, "AB"); (0x800000, "META") ] in
  Alcotest.(check string) "limit drops high segment" "\xff\xffAB" flat

let build_image () = (Helpers.build_mavr ()).image

let test_image_invariants () =
  let img = build_image () in
  Helpers.assert_ok (Image.validate img);
  Alcotest.(check int) "function count" 120 (Image.function_count img);
  Alcotest.(check bool) "has function pointers" true (List.length img.funptr_locs > 0)

let test_image_function_containing () =
  let img = build_image () in
  let sym = List.nth img.Image.symbols 5 in
  (match Image.function_containing img sym.addr with
  | Some s -> Alcotest.(check string) "exact start" sym.name s.name
  | None -> Alcotest.fail "no function at symbol start");
  (match Image.function_containing img (sym.addr + sym.size - 1) with
  | Some s -> Alcotest.(check string) "last byte" sym.name s.name
  | None -> Alcotest.fail "no function at last byte");
  (match Image.function_containing img (img.text_start - 1) with
  | Some s -> Alcotest.failf "below text resolved to %s" s.Image.name
  | None -> ());
  match Image.function_containing img img.text_end with
  | Some s -> Alcotest.failf "text_end resolved to %s" s.Image.name
  | None -> ()

let test_image_broken_coverage_rejected () =
  let img = build_image () in
  let broken = { img with symbols = List.tl img.Image.symbols } in
  match Image.validate broken with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "gap should be rejected"

let test_symtab_blob_roundtrip () =
  let img = build_image () in
  let meta = Symtab.meta_of_image img in
  let meta' = Symtab.of_blob (Symtab.to_blob meta) in
  Alcotest.(check bool) "meta roundtrip" true (Symtab.equal_meta meta meta')

let test_symtab_bad_magic () =
  match Symtab.of_blob "XXXXX garbage" with
  | _ -> Alcotest.fail "expected bad magic"
  | exception Invalid_argument _ -> ()

let test_preprocessed_hex_roundtrip () =
  (* The §VI-B2 flow: image -> prepended HEX -> (external flash) -> image. *)
  let img = build_image () in
  let hex = Symtab.to_hex img in
  let img' = Symtab.of_hex hex in
  Alcotest.(check string) "code identical" img.Image.code img'.Image.code;
  Alcotest.(check int) "same text bounds" img.text_start img'.Image.text_start;
  Alcotest.(check int) "same function count" (Image.function_count img) (Image.function_count img');
  Alcotest.(check (list int)) "same funptr locs" img.funptr_locs img'.Image.funptr_locs;
  (* Names are synthesized, but addresses and sizes must agree. *)
  List.iter2
    (fun (a : Image.symbol) (b : Image.symbol) ->
      Alcotest.(check int) "symbol addr" a.addr b.addr;
      Alcotest.(check int) "symbol size" a.size b.size)
    img.symbols img'.Image.symbols;
  Helpers.assert_ok (Image.validate img')

let test_preprocessed_hex_matches_oracle () =
  let img = build_image () in
  let blob = Symtab.to_blob (Symtab.meta_of_image img) in
  Alcotest.(check string) "to_hex"
    (Oracle.encode [ (Symtab.meta_base, blob); (0, img.Image.code) ])
    (Symtab.to_hex img)

let test_fingerprint_changes () =
  let img = build_image () in
  let r = Mavr_core.Randomize.randomize ~seed:3 img in
  Alcotest.(check bool) "randomization changes fingerprint" true
    (Image.fingerprint img <> Image.fingerprint r)

let prop_ihex_roundtrip =
  QCheck.Test.make ~name:"ihex roundtrip on random payloads" ~count:100
    QCheck.(pair (int_bound 100_000) (string_of_size (QCheck.Gen.int_range 1 600)))
    (fun (base, data) ->
      match Ihex.decode (Ihex.encode [ (base, data) ]) with
      | [ (b, d) ] -> b = base && d = data
      | _ -> false)

let () =
  Alcotest.run "objfile"
    [
      ( "ihex",
        [
          Alcotest.test_case "simple roundtrip" `Quick test_ihex_simple_roundtrip;
          Alcotest.test_case "crosses 64K" `Quick test_ihex_crosses_64k;
          Alcotest.test_case "multi segment" `Quick test_ihex_multi_segment;
          Alcotest.test_case "bad checksum" `Quick test_ihex_bad_checksum;
          Alcotest.test_case "missing EOF" `Quick test_ihex_missing_eof;
          Alcotest.test_case "malformed records" `Quick test_ihex_malformed;
          Alcotest.test_case "blank lines, CRLF, after EOF" `Quick test_ihex_lenient_layout;
          Alcotest.test_case "flatten" `Quick test_ihex_flatten;
        ] );
      ( "image",
        [
          Alcotest.test_case "invariants" `Quick test_image_invariants;
          Alcotest.test_case "function_containing" `Quick test_image_function_containing;
          Alcotest.test_case "coverage gaps rejected" `Quick test_image_broken_coverage_rejected;
          Alcotest.test_case "fingerprint" `Quick test_fingerprint_changes;
        ] );
      ( "symtab",
        [
          Alcotest.test_case "blob roundtrip" `Quick test_symtab_blob_roundtrip;
          Alcotest.test_case "bad magic" `Quick test_symtab_bad_magic;
          Alcotest.test_case "preprocessed hex roundtrip" `Quick test_preprocessed_hex_roundtrip;
          Alcotest.test_case "preprocessed hex matches oracle" `Quick
            test_preprocessed_hex_matches_oracle;
        ] );
      ( "properties",
        List.map Helpers.qtest
          [ prop_ihex_roundtrip; prop_encode_matches_oracle; prop_decode_maximal ] );
    ]
