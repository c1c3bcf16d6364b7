(* Intel HEX decode must stay linear in the record count.  A 512 KB
   single-segment image is 32,768 data records; a merge that re-scans
   the open segment once per record takes seconds on it, a linear one
   tens of milliseconds.  The case runs alone in its own executable, so
   its time is not shared with other tests. *)

module Ihex = Mavr_obj.Ihex

let size = 512 * 1024
let bound_s = 1.0

let test_decode_512k () =
  let data = String.init size (fun i -> Char.chr ((i * 7) land 0xFF)) in
  let hex = Ihex.encode [ (0, data) ] in
  let t0 = Sys.time () in
  let segs = Ihex.decode hex in
  let dt = Sys.time () -. t0 in
  Alcotest.(check bool) "one maximal segment" true (segs = [ (0, data) ]);
  if dt > bound_s then
    Alcotest.failf "decoding %d KB took %.2f s, above the %.1f s bound" (size / 1024) dt bound_s

let () =
  Alcotest.run "ihex-scaling"
    [ ("decode", [ Alcotest.test_case "512 KB in linear time" `Quick test_decode_512k ]) ]
