(* Bit [i] of [bits] stands for stamp [floor + 1 + i]. The bitmap grows
   by doubling to cover the highest stamp added, up to [floor + bound]. *)
type stamps = { floor : int; bound : int; mutable bits : Bytes.t }

let stamps ?(floor = 0) ~bound () = { floor; bound; bits = Bytes.make 64 '\000' }

let add t stamp =
  let i = stamp - t.floor - 1 in
  if i >= 0 && i < t.bound then begin
    let byte = i lsr 3 in
    let len = Bytes.length t.bits in
    if byte >= len then begin
      let bigger = Bytes.make (max (byte + 1) (2 * len)) '\000' in
      Bytes.blit t.bits 0 bigger 0 len;
      t.bits <- bigger
    end;
    let old = Bytes.get_uint8 t.bits byte in
    Bytes.set_uint8 t.bits byte (old lor (1 lsl (i land 7)))
  end

(* The first clear bit: whole bytes of set bits first, then the bit. *)
let recover_fc t =
  let len = Bytes.length t.bits in
  let rec full byte =
    if byte < len && Bytes.get_uint8 t.bits byte = 0xff then full (byte + 1) else byte
  in
  let byte = full 0 in
  if byte = len then t.floor + (8 * len)
  else begin
    let b = Bytes.get_uint8 t.bits byte in
    let rec clear bit = if b land (1 lsl bit) = 0 then bit else clear (bit + 1) in
    t.floor + (8 * byte) + clear 0
  end

let plan_blocks ~blocks ~threads ~tid =
  if threads < 1 || tid < 0 || tid >= threads then
    invalid_arg "Recovery.plan_blocks";
  let rec collect i acc =
    if i >= blocks then List.rev acc else collect (i + threads) (i :: acc)
  in
  collect tid []
