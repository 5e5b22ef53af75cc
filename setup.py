"""Build script for the optional compiled DDP kernel.

The package is fully functional without the extension (a NumPy fallback is
selected at import time); building it just makes backward induction faster.
-ffp-contract=off stops the compiler from fusing a * b + c into one
multiply-add, which rounds once instead of twice and would make the compiled
results differ from NumPy's in the last bit on targets with FMA. -pthread
compiles and links the threads the kernel runs its backward pass on.
"""

from setuptools import Extension, setup

setup(
    ext_modules=[
        Extension(
            "chargeopt.optimizer._ddp_kernel",
            ["src/chargeopt/optimizer/_ddp_kernel.c"],
            extra_compile_args=["-O3", "-ffp-contract=off", "-pthread"],
            extra_link_args=["-pthread"],
            optional=True,  # fall back to the NumPy kernel if the build fails
        )
    ]
)
