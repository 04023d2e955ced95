module type VALUE = sig
  type t

  val inline : t -> int option
  val of_inline : int -> t
  val to_bytes : t -> Bytes.t
  val of_bytes : Bytes.t -> t
end

module type KEY = sig
  include VALUE

  val compare : t -> t -> int
end

let marker_word = 0
let is_marker w = w = 0
let max_inline = (1 lsl 61) - 1

module Int_value = struct
  type t = int

  let inline v = if v >= 0 && v <= max_inline then Some v else None
  let of_inline p = p

  let to_bytes v =
    let b = Bytes.create 8 in
    Bytes.set_int64_le b 0 (Int64.of_int v);
    b

  let of_bytes b = Int64.to_int (Bytes.get_int64_le b 0)
end

module Int_key = struct
  include Int_value

  let compare = Int.compare
end

module String_value = struct
  type t = string

  let inline _ = None
  let of_inline _ = invalid_arg "String_value.of_inline"
  let to_bytes = Bytes.of_string
  let of_bytes = Bytes.to_string
end

module String_key = struct
  include String_value

  let compare = String.compare
end

let encode (type a) (module V : VALUE with type t = a) heap (v : a) =
  match V.inline v with
  | Some payload ->
      if payload < 0 || payload > max_inline then
        invalid_arg "Codec.encode: inline payload out of range";
      (payload lsl 1) lor 1
  | None -> Pmem.Pblob.write heap (V.to_bytes v)

let decode (type a) (module V : VALUE with type t = a) media word : a =
  if word = marker_word then invalid_arg "Codec.decode: marker word"
  else if word land 1 = 1 then V.of_inline (word lsr 1)
  else V.of_bytes (Pmem.Pblob.read media word)

let is_blob w = w <> marker_word && w land 1 = 0
let free_word heap word = if is_blob word then Pmem.Pblob.free heap word
