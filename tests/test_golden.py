"""Golden CSV digests: the exact bytes each command emits on small inputs.

The digests were recorded from the implementation before the two-level
certification, annihilator chain, experiment pipeline and command dispatch
were consolidated; any change to them is a change of results, not of
structure.  Run-to-run determinism is covered in test_cli.py; this file pins
the bytes themselves.
"""

from __future__ import annotations

import hashlib

import pytest

from pertlab.cli import emit_csv, run_manifest


def _manifest(**task) -> str:
    lines = ["[manifest]", "format-version = 1", "", "[task]"]
    lines += [f"{key} = {value}" for key, value in task.items()]
    return "\n".join(lines) + "\n"


SMALL = {"n_max": 4, "seed": 3}

CASES = {
    "check-filter-regular": (
        _manifest(command="check-filter-regular", catalog="remark-2-4", **SMALL),
        "e6a369716a5ae4dbe34df2b6ddec5eafe3f6cb9d6cc703ea3db4226be0b793e4", 0),
    "hilbert": (
        _manifest(command="hilbert", catalog="remark-2-4", **SMALL),
        "4860b4352138c3fe64650c8fa8eaaf6618b64fb66e077885fbbdd93aa2203f7f", 0),
    "hilbert-ring-section": (
        "[manifest]\nformat-version = 1\n\n[ring]\np = 5\nvars = x, y\n"
        "gens = x^2\nD = 9\n\n[ideals]\nJ = x, y\n\n[task]\n"
        "command = hilbert\nf = y\nJ = J\nn_max = 3\nseed = 1\ndelta = 3\n",
        "6986dcb9cb762d5ba6bad109db26dc77f1d2b41a3399345a388201555eca7270", 0),
    "ar-number": (
        _manifest(command="ar-number", catalog="node-diagonal", **SMALL),
        "507d08db0ca8aa9c5d4778e4f909352bcb59a495682f2ee57b50e3de71d94f95", 0),
    "ar-number-delta-3": (
        _manifest(command="ar-number", catalog="fat-line", delta=3, **SMALL),
        "507d08db0ca8aa9c5d4778e4f909352bcb59a495682f2ee57b50e3de71d94f95", 0),
    "koszul": (
        _manifest(command="koszul", catalog="remark-2-4", **SMALL),
        "45c8edb77ecc6632015a9269c3121fa704eb523ea28b2b3aee7bea2dc870aacc", 0),
    "koszul-uncertified": (
        _manifest(command="koszul", catalog="fat-line", delta=1, **SMALL),
        "9474692015d5b5dc3b4659f25292073870e0cae53a4ff7a260b643321a228d27", 0),
    "bound-n": (
        _manifest(command="bound-n", catalog="regular-line", **SMALL),
        "b56dae55ab4621c66b01cf1642418450fb7c5299f1bb4d4ec9a317b8ca5b6375", 0),
    "verify-main": (
        _manifest(command="verify", claim="main", catalog="node-diagonal",
                  N=2, samples=2, **SMALL),
        "746dd06bcd69d107b6f602cd1b91ff806b1baf072e37879e7e4099bc21d33e32", 0),
    "verify-main-epsilon": (
        _manifest(command="verify", claim="main", catalog="node-branch",
                  n_max=4, epsilon="x^2", seed=0),
        "d92ccf8345255eb704a2e5012763dadbbbd6dbd205d71ee0f0768e26dad283cc", 1),
    "verify-monotonicity": (
        _manifest(command="verify", claim="monotonicity",
                  catalog="node-diagonal", N=3, samples=2, **SMALL),
        "f65b022983f7360feb8a7051df52e6c04e542a171c3d29b86ffe5cb2b6a0f010", 0),
    "verify-control-colon": (
        _manifest(command="verify", claim="control-colon",
                  catalog="remark-2-4", N=3, samples=2, **SMALL),
        "0bebf5c96e25dbdf49f896a0c1a36fc4d3dbef9679590f21730e432786fe7dfe", 0),
    "verify-preservation": (
        _manifest(command="verify", claim="preservation",
                  catalog="remark-2-4", N=2, samples=2, **SMALL),
        "0cebd10f0bca5c200ebf8e94cba4c5d160a72f0f38c3ab89f899a480fd951b41", 0),
    "find-min-n": (
        _manifest(command="find-min-n", catalog="node-diagonal", N="1..3",
                  samples=2, **SMALL),
        "a6dea1cce31463a239eb6d48a00b2dc4691b553e113085857c558bfbfaeb45aa", 0),
    "experiment": (
        _manifest(command="experiment", catalog="remark-2-4", N="1..3",
                  samples=2, **SMALL),
        "f98870ff67a26bc01e1d62a31b40fa1be5aa3e94043603b0fe7d5fdc60497af4", 0),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_csv_digest(name):
    text, digest, exit_code = CASES[name]
    result = run_manifest(text)
    assert result.exit_code() == exit_code
    assert hashlib.sha256(emit_csv(result).encode()).hexdigest() == digest
