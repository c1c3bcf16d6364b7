module Isa = Mavr_avr.Isa
module Image = Mavr_obj.Image

type kind = Stk_move | Write_mem | Pop_chain | Plain

type t = { byte_addr : int; insns : Isa.t list; kind : kind }

let kind_name = function
  | Stk_move -> "stk_move"
  | Write_mem -> "write_mem"
  | Pop_chain -> "pop_chain"
  | Plain -> "plain"

(* Control transfers end a straight-line gadget body. *)
let breaks_flow = function
  | Isa.Ret | Isa.Reti | Isa.Jmp _ | Isa.Rjmp _ | Isa.Call _ | Isa.Rcall _ | Isa.Icall
  | Isa.Ijmp | Isa.Brbs _ | Isa.Brbc _ | Isa.Cpse _ | Isa.Sbic _ | Isa.Sbis _ | Isa.Sbrc _
  | Isa.Sbrs _ | Isa.Data _ | Isa.Break | Isa.Sleep ->
      true
  | Isa.Nop | Isa.Movw _ | Isa.Ldi _ | Isa.Mov _ | Isa.Add _ | Isa.Adc _ | Isa.Sub _
  | Isa.Sbc _ | Isa.And _ | Isa.Or _ | Isa.Eor _ | Isa.Cp _ | Isa.Cpc _ | Isa.Mul _
  | Isa.Subi _ | Isa.Sbci _ | Isa.Andi _ | Isa.Ori _ | Isa.Cpi _ | Isa.Com _ | Isa.Neg _
  | Isa.Inc _ | Isa.Dec _ | Isa.Lsr _ | Isa.Ror _ | Isa.Asr _ | Isa.Swap _ | Isa.Push _
  | Isa.Pop _ | Isa.In _ | Isa.Out _ | Isa.Lds _ | Isa.Sts _ | Isa.Ldd _ | Isa.Std _
  | Isa.Ld _ | Isa.St _ | Isa.Adiw _ | Isa.Sbiw _ | Isa.Lpm0 | Isa.Lpm _ | Isa.Elpm0
  | Isa.Elpm _ | Isa.Sbi _ | Isa.Cbi _ | Isa.Bld _ | Isa.Bst _ | Isa.Bset _ | Isa.Bclr _
  | Isa.Wdr ->
      false

let classify insns =
  let spl = Mavr_avr.Device.Io.spl and sph = Mavr_avr.Device.Io.sph in
  let writes_spl = List.exists (function Isa.Out (a, _) -> a = spl | _ -> false) insns in
  let writes_sph = List.exists (function Isa.Out (a, _) -> a = sph | _ -> false) insns in
  let stds = List.length (List.filter (function Isa.Std _ -> true | _ -> false) insns) in
  let pops = List.length (List.filter (function Isa.Pop _ -> true | _ -> false) insns) in
  if writes_spl && writes_sph then Stk_move
  else if stds >= 1 && pops >= 2 then Write_mem
  else if pops >= 3 then Pop_chain
  else Plain

let exec_regions (img : Image.t) =
  [ (0, img.exec_low_end); (img.text_start, img.text_end) ]

let scan ?(max_len = 8) img =
  let gadgets = ref [] in
  List.iter
    (fun (start, stop) ->
      (* Decode at every word offset, the way the CPU's decode store
         covers every word address: a ret can be entered not only from
         linear-sweep boundaries but from the middle of any two-word
         instruction, and each such entry is a distinct gadget. *)
      let words = Mavr_avr.Disasm.decode_words ~pos:start ~len:(stop - start) img.Image.code in
      let n = Array.length words in
      (* The forward decode chain from a given entry is deterministic, so
         enumerating entries (rather than per-ret suffixes) dedupes
         overlapping suffixes by construction: each entry address yields at
         most one gadget. *)
      let rec chain i count acc =
        if i >= n then None
        else
          let insn, size = words.(i) in
          if start + (2 * i) + size > stop then None
          else if insn = Isa.Ret then Some (List.rev (insn :: acc))
          else if count + 1 >= max_len || breaks_flow insn then None
          else chain (i + (size / 2)) (count + 1) (insn :: acc)
      in
      for i = n - 1 downto 0 do
        match chain i 0 [] with
        | Some (_ :: _ :: _ as insns) ->
            let body = List.filteri (fun k _ -> k < List.length insns - 1) insns in
            if List.exists Isa.is_useful_for_gadget body then
              gadgets := { byte_addr = start + (2 * i); insns; kind = classify body } :: !gadgets
        | Some _ | None -> ()
      done)
    (List.rev (exec_regions img));
  !gadgets

let count_by_kind gadgets =
  List.fold_left
    (fun acc g ->
      let n = try List.assoc g.kind acc with Not_found -> 0 in
      (g.kind, n + 1) :: List.remove_assoc g.kind acc)
    [] gadgets

type paper_gadgets = { stk_move : int; write_mem : int; write_mem_pops : int }

let locate_paper_gadgets (img : Image.t) =
  let spl = Mavr_avr.Device.Io.spl and sph = Mavr_avr.Device.Io.sph in
  let lines =
    List.concat_map
      (fun (start, stop) ->
        List.rev
          (Mavr_avr.Decode.fold_program img.Image.code ~pos:start ~len:(stop - start)
             (fun acc addr insn -> (addr, insn) :: acc)
             []))
      (exec_regions img)
  in
  let arr = Array.of_list lines in
  let n = Array.length arr in
  (* Fig. 4 shape: out SPH; out SREG; out SPL; pop; pop; pop; ret. *)
  let find_stk_move () =
    let rec go i =
      if i + 6 >= n then None
      else
        match
          ( snd arr.(i), snd arr.(i + 1), snd arr.(i + 2), snd arr.(i + 3), snd arr.(i + 4),
            snd arr.(i + 5), snd arr.(i + 6) )
        with
        | Isa.Out (a1, _), Isa.Out (_, _), Isa.Out (a3, _), Isa.Pop _, Isa.Pop _, Isa.Pop _, Isa.Ret
          when a1 = sph && a3 = spl ->
            Some (fst arr.(i))
        | _ -> go (i + 1)
    in
    go 0
  in
  (* Fig. 5 shape: std Y+1; std Y+2; std Y+3; then a run of pops ending in ret. *)
  let find_write_mem () =
    let rec pops_until_ret i count =
      if i >= n then None
      else
        match snd arr.(i) with
        | Isa.Pop _ -> pops_until_ret (i + 1) (count + 1)
        | Isa.Ret when count >= 10 -> Some ()
        | _ -> None
    in
    let rec go i =
      if i + 3 >= n then None
      else
        match (snd arr.(i), snd arr.(i + 1), snd arr.(i + 2)) with
        | Isa.Std (Isa.Y, 1, _), Isa.Std (Isa.Y, 2, _), Isa.Std (Isa.Y, 3, _) -> (
            match pops_until_ret (i + 3) 0 with
            | Some () -> Some (fst arr.(i), fst arr.(i + 3))
            | None -> go (i + 1))
        | _ -> go (i + 1)
    in
    go 0
  in
  match (find_stk_move (), find_write_mem ()) with
  | Some stk_move, Some (write_mem, write_mem_pops) -> Some { stk_move; write_mem; write_mem_pops }
  | _ -> None

let pp fmt g =
  Format.fprintf fmt "@[<v>gadget %s at 0x%x:@," (kind_name g.kind) g.byte_addr;
  List.iter (fun i -> Format.fprintf fmt "  %a@," Isa.pp i) g.insns;
  Format.fprintf fmt "@]"
