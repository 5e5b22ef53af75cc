"""Build script for the optional compiled kernels.

The package is fully functional without the extension (NumPy definitions
with the same bits are selected at import time); building it just makes
backward induction, MLP training, and the per-interval step of the circuit
model and the thermal predictor faster. Aging stays in NumPy. All of them
are one C source, built as one module, chargeopt._kernel.
-ffp-contract=off stops the compiler from fusing a * b + c into one
multiply-add, which rounds once instead of twice and would make the compiled
results differ from NumPy's in the last bit on targets with FMA.
-fno-trapping-math lets GCC vectorize the MLP loops' explicit exp, whose
clamps it otherwise keeps as branches; it changes no value. -pthread
compiles and links the threads the backward pass runs on.
"""

from setuptools import Extension, setup

EXTENSIONS = [
    Extension(
        "chargeopt._kernel",
        ["src/chargeopt/_kernel.c"],
        extra_compile_args=["-O3", "-ffp-contract=off", "-fno-trapping-math", "-pthread"],
        extra_link_args=["-pthread"],
        optional=True,  # fall back to the NumPy definitions if the build fails
    ),
]

if __name__ == "__main__":
    setup(ext_modules=EXTENSIONS)
