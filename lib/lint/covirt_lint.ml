(* covirt.lint — the AST-level static analyzer behind `covirt-lint`
   and `dune build @lint`.

   Covirt's protection contracts are meant to hold *by construction*;
   this library makes four of them machine-checked analyses over the
   real syntax tree (compiler-libs [Parse.implementation] — purely
   syntactic, no typing, no ppx):

   - zero-cost taps: every Obs/Sanitize emission and [Probe.fire]
     site in the hot layers sits under a pure [!flag] guard;
   - warm-region allocation: code between [(* warm-begin *)] and
     [(* warm-end *)] markers builds no closures, tuples, list/array
     literals or boxed values outside the designated cold-fill idiom;
   - layer confinement: inter-module references obey the declared
     layer rule table (exported as a DOT graph);
   - determinism: no wall-clock or self-seeded randomness under lib/,
     no order-dependent Hashtbl iteration in the merge layers.

   plus the ported source conventions (interface presence, no direct
   printing, the fleet's Domain monopoly, the
   replay codec's confinement).  See docs/LINTING.md. *)

module Finding = Finding
module Source = Source
module Ast_scan = Ast_scan
module Layer = Layer
module Checks = Checks
module Engine = Engine
