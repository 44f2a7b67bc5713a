"""The six lines of tests/bit_digest.py against pinned digests, so that tier-1 guards every trained bit.

A change that moves a bit on purpose updates the pinned line here and says
why in CHANGES.md. The digests depend on the kernels of NumPy and of its
BLAS, which OpenBLAS picks for the CPU at run time, so the pins record the
stack they were taken on. On another stack a mismatch says that it is
another stack; it still fails, as a test that passed or skipped there
would guard nothing.
"""

import platform

import numpy as np
import pytest

from bit_digest import digest_lines

PINNED_STACK = {
    "numpy": "2.4.6",
    "blas": "scipy-openblas 0.3.31.188.0 (OpenBLAS 0.3.31.188.0  USE64BITINT DYNAMIC_ARCH NO_AFFINITY Haswell MAX_THREADS=64)",
    "cpu": "Intel(R) Xeon(R) Processor",
}
PINS = {
    "48-config": "6a668620e5ad710061fe7acf0983f982a901806eb07c28fd02b816b485570bc5",
    "train-recipe": "d32b821210414c5cd5afde1f43902c49b2bc9270cdbf6cfa07a26943e13c867e 0.6046475327959144",
    "train-fc-dense": "a68063da823732d8efc8f14a6b7778aa61f88861e576ab23f715fa5876c74a48 0.5969089639642738",
    "load": "87c40d67eaf931840df0d1badc2ee48d8f296a2f452ac2966ee9c760be1fab77",
    "predict": "f3bc5fe22d40151b7f98da96ef232c6598e36386ea5bf961ed6bf74ee69b9934",
    "evaluate": "ca2d1458127db2cef5f89a100452996ebfcb567d31ad5105591951346f6a95c5",
}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as info:
            models = [line.split(":", 1)[1].strip() for line in info if line.startswith("model name")]
    except OSError:
        models = []
    return models[0] if models else platform.processor()


def this_stack() -> dict[str, str]:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')} ({blas.get('openblas configuration', 'no configuration')})",
        "cpu": _cpu_model(),
    }


@pytest.fixture(scope="module")
def lines():
    return digest_lines()


def test_every_line_of_the_script_is_pinned(lines):
    assert list(lines) == list(PINS)


@pytest.mark.parametrize("name", PINS)
def test_digest_line_keeps_its_pinned_bits(lines, name):
    stack = this_stack()
    if stack == PINNED_STACK:
        where = "on the stack the pins were taken on, so a change moved these bits"
    else:
        moved = ", ".join(f"{key} {PINNED_STACK[key]!r} -> {stack[key]!r}" for key in stack if stack[key] != PINNED_STACK[key])
        where = f"on another stack than the pins' ({moved}): its kernels may round differently"
    assert lines[name] == PINS[name], f"bit_digest line {name!r} reads {lines[name]!r}, pinned {PINS[name]!r}, {where}"
