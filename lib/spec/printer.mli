(** Rendering a component assembly back to [.hsc] text.

    [Spec.load (Printer.to_string a)] reconstructs an assembly equivalent
    to [a] (the round-trip property checked by the test suite), so the
    printer doubles as a serialisation format for generated systems.

    The text is canonical: platforms, then components, then instances,
    then bindings, each item on whole lines.  An assembly made of parts
    ({!Component.Assembly.concat}) therefore prints as the {!concat} of
    its parts' {!sections}, which lets a caller print each part once and
    reuse the text. *)

type sections = {
  platforms : string;
  components : string;
  instances : string;
  bindings : string;
}
(** The printed text of one assembly, section by section. *)

val sections : Component.Assembly.t -> sections
(** Instances print with the platform their first allocation entry
    names within the same assembly ([UNALLOCATED] without one). *)

val concat : sections list -> string
(** The text of the concatenated parts: every part's platforms, then
    every part's components, and so on.  [to_string a] is
    [concat [ sections a ]]; for parts whose instances are allocated
    within their own part and named uniquely across parts,
    [concat (List.map sections parts)] is
    [to_string (Component.Assembly.concat parts)]. *)

val to_string : Component.Assembly.t -> string

val pp : Format.formatter -> Component.Assembly.t -> unit
