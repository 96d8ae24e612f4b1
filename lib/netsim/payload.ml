type t = ..
type t += Raw of string
