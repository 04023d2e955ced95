let recover_fc ?(floor = 0) stamps =
  let n = Array.length stamps in
  (* Mark which stamps in [floor + 1, floor + n] are present; any stamp
     above that cannot belong to the complete run {floor + 1..G}, since
     G <= floor + n. *)
  let present = Bytes.make (n + 1) '\000' in
  Array.iter
    (fun s ->
      let i = s - floor in
      if i >= 1 && i <= n then Bytes.set present i '\001')
    stamps;
  let rec scan g =
    if g < n && Bytes.get present (g + 1) = '\001' then scan (g + 1) else g
  in
  floor + scan 0

let plan_blocks ~blocks ~threads ~tid =
  if threads < 1 || tid < 0 || tid >= threads then
    invalid_arg "Recovery.plan_blocks";
  let rec collect i acc =
    if i >= blocks then List.rev acc else collect (i + threads) (i :: acc)
  in
  collect tid []
