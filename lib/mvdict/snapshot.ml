type ('k, 'v) change =
  | Added of 'k * 'v
  | Removed of 'k * 'v
  | Changed of 'k * 'v * 'v

let diff ~compare_key ~equal_value ~prev ~next =
  let np = Array.length prev and nn = Array.length next in
  let rec walk i j acc =
    if i >= np && j >= nn then List.rev acc
    else if i >= np then
      let k, v = next.(j) in
      walk i (j + 1) (Added (k, v) :: acc)
    else if j >= nn then
      let k, v = prev.(i) in
      walk (i + 1) j (Removed (k, v) :: acc)
    else begin
      let kp, vp = prev.(i) and kn, vn = next.(j) in
      let c = compare_key kp kn in
      if c < 0 then walk (i + 1) j (Removed (kp, vp) :: acc)
      else if c > 0 then walk i (j + 1) (Added (kn, vn) :: acc)
      else if equal_value vp vn then walk (i + 1) (j + 1) acc
      else walk (i + 1) (j + 1) (Changed (kp, vp, vn) :: acc)
    end
  in
  walk 0 0 []
