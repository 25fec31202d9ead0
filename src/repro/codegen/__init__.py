"""Plan-to-code generation: specialized Python/NumPy kernels per compiled plan.

The default execution backend of the MHA kernels (``exec_backend="codegen"``;
``"loop"`` is the oracle): instead of interpreting the plan's bucketing and
gather decisions on every call, it *emits Python source specialized to one
mask* — block layout, bucket membership, strides, and chunk sizes baked in
as literals, dead branches (bias adds, masked-row guards, chunk loops)
eliminated when the mask proves them unreachable — then ``exec``/imports the
module and caches it keyed by the plan's :class:`repro.plan.PlanKey` hash.

Layout (modelled on torchinductor's template codegen):

* :mod:`repro.codegen.emit` — ``IndentedBuffer`` source emission.
* :mod:`repro.codegen.templates` — the template registry; each template has
  a ``version`` that participates in the plan key, so upgrading a template
  invalidates stale cached modules instead of silently executing old code.
* :mod:`repro.codegen.blockwise` / :mod:`repro.codegen.rowwise` — the
  specializers (differentially tested against the loop oracle to the FP16
  noise floor); each records one group decision per emitted group, which
  the kernel counters replay.
* :mod:`repro.codegen.cache` — content-addressed generated-code cache:
  in-process (zero rebind cost) and optionally on disk (warm starts skip
  emission entirely; corrupted entries are detected by hash and re-emitted).
* :mod:`repro.codegen.backend` — the glue the kernels dispatch to, with
  ``codegen.emit`` / ``codegen.cache`` tracer spans and metrics.

With ``STOF_CODEGEN_SYMBOLIC=1`` (or :func:`use_symbolic_codegen`) the
cache key frees ``n_bh`` into a guarded family: modules whose emitted
text does not depend on the freed dimension are shared across every
``n_bh`` the recorded guards admit (see ``docs/symbolic_shapes.md``).

See ``docs/codegen.md``.
"""

from repro.codegen.backend import (
    codegen_plan_key,
    generated_family_kernel,
    generated_kernel,
    run_blockwise,
    run_rowwise,
    symbolic_codegen_enabled,
    use_symbolic_codegen,
)
from repro.codegen.cache import (
    GeneratedCodeCache,
    codegen_cache,
    set_codegen_cache,
    use_codegen_cache,
)
from repro.codegen.emit import IndentedBuffer
from repro.codegen.templates import (
    Template,
    get_template,
    register_template,
    template_names,
)

__all__ = [
    "GeneratedCodeCache",
    "IndentedBuffer",
    "Template",
    "codegen_cache",
    "codegen_plan_key",
    "generated_family_kernel",
    "generated_kernel",
    "get_template",
    "register_template",
    "run_blockwise",
    "run_rowwise",
    "set_codegen_cache",
    "symbolic_codegen_enabled",
    "template_names",
    "use_codegen_cache",
    "use_symbolic_codegen",
]
