type t = int

let null = 0
let is_null p = p = 0
let align8 n = (n + 7) land lnot 7
