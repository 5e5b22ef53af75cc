"""Build script for the optional compiled kernels.

The package is fully functional without the extensions (NumPy fallbacks with
the same bits are selected at import time); building them just makes
backward induction, MLP training and prediction, and the per-interval step
of the circuit model and the thermal predictor faster. Aging stays in NumPy.
-ffp-contract=off stops the compiler from fusing a * b + c into one
multiply-add, which rounds once instead of twice and would make the compiled
results differ from NumPy's in the last bit on targets with FMA. -pthread
compiles and links the threads the DDP kernel runs its backward pass on.
-fno-trapping-math lets GCC vectorize the MLP kernel's explicit exp, whose
clamps it otherwise keeps as branches; it changes no value.
"""

from setuptools import Extension, setup

EXTENSIONS = [
    Extension(
        "chargeopt.optimizer._ddp_kernel",
        ["src/chargeopt/optimizer/_ddp_kernel.c"],
        extra_compile_args=["-O3", "-ffp-contract=off", "-pthread"],
        extra_link_args=["-pthread"],
        optional=True,  # fall back to the NumPy kernel if the build fails
    ),
    Extension(
        "chargeopt._mlp_kernel",
        ["src/chargeopt/_mlp_kernel.c"],
        extra_compile_args=["-O3", "-ffp-contract=off", "-fno-trapping-math"],
        optional=True,  # fall back to the NumPy definitions in electrical.py and thermal.py if the build fails
    ),
]

if __name__ == "__main__":
    setup(ext_modules=EXTENSIONS)
