"""Golden trace bytes: every registry config, 100 reference-free iterations
at two seeds, must reproduce the recorded trace.csv sha256 exactly.

Speed work may not change a trace; a mismatch here means the arithmetic of
some run changed order or inputs.  The table equals the ``verify`` entries
of ``perfbench/golden.json``.
"""

import hashlib

import pytest

from fomcert import cli, methods, problems

ITERATIONS = 100

RUNS = {
    "simplex-quadratic:prox_gradient": ("simplex-quadratic", {"name": "prox_gradient"}),
    "lasso:prox_gradient": ("lasso", {"name": "prox_gradient"}),
    "lasso:fast_gradient": ("lasso", {"name": "fast_gradient"}),
    "poisson-burg:prox_gradient": ("poisson-burg", {"name": "prox_gradient"}),
    "l1-regression:prox_subgradient": ("l1-regression", {"name": "prox_subgradient"}),
    "holder:universal_gradient": ("holder", {"name": "universal_gradient", "eps": 1e-3}),
    "cg-ball:conditional_subgradient": ("cg-ball", {"name": "conditional_subgradient"}),
    "cg-ball:conditional_subgradient:linesearch": (
        "cg-ball", {"name": "conditional_subgradient", "schedule": "linesearch"}),
}

GOLDEN = {
    0: {
        "simplex-quadratic:prox_gradient": "7af07fd915281fc500a11ba923cd76f2c64396ad4b72e1ee7aba0434aef9980b",
        "lasso:prox_gradient": "5c0b6561bfb7cc64659ff5ba638c4f31a203d641b3f9eee4daad3540d2ffd815",
        "lasso:fast_gradient": "402995dae70cd58a479a9eea43a15842ef4127b4cc7cfde9bc460b157cd2a956",
        "poisson-burg:prox_gradient": "a8e9efa333bf6b4cfb0542fc4eaee4a62b03e33fc0d18490e1f7d69562d2d463",
        "l1-regression:prox_subgradient": "957b86a3cc7661522fa01568f8bed17eeda96a2c7516744ec551f99246df7cc5",
        "holder:universal_gradient": "b364592ba91cb1a3291ff6704ad8ecb1398086cdc6d5be5a1b84c83778bd49de",
        "cg-ball:conditional_subgradient": "39256399f37470be8cd305a13991cc32f93210f0f21a34539903c155505894be",
        "cg-ball:conditional_subgradient:linesearch": "33d036be3a4b2e65e91baf051b8a2fd88269538d50b280c44b571051278712e9",
    },
    91: {
        "simplex-quadratic:prox_gradient": "c8848db4c50c82f97b5252e779899024af5643b709c74467678470e33c122928",
        "lasso:prox_gradient": "8ba1096c3eecf474056de3a244a7bddd79f9e8a83d2dcbe371c028ed43f1ed76",
        "lasso:fast_gradient": "68de3aa1ed9e750d73e8bbcc602d8ffebb4195f854e7a028b1a4061dc7b1c063",
        "poisson-burg:prox_gradient": "3f26fea4342aab6e95aa973c0c6a5e45451c33aed21ef415890b96f1f31ec359",
        "l1-regression:prox_subgradient": "0ed45f3c54e8b623abe729a0d94d2e37edaf301dbcade22a0553c313d55391d5",
        "holder:universal_gradient": "ecca3ab2744f2a2f7f3721abaf1265264a3a8fefa63952474c75c733c8062fcf",
        "cg-ball:conditional_subgradient": "ec7f600c649b2191f89882f337d29d78f167e14d1701857a9366c984116c816e",
        "cg-ball:conditional_subgradient:linesearch": "cd462882b2eab53de9435856929826dbb6857ccf7fed8a10cbb4ee2f5ea125bc",
    },
}


@pytest.mark.parametrize("seed", sorted(GOLDEN))
@pytest.mark.parametrize("key", sorted(RUNS))
def test_trace_bytes_match_golden(tmp_path, key, seed):
    name, spec = RUNS[key]
    instance = problems.make_instance(name, seed=seed)
    result = methods.run(instance, cli.config_from_dict(spec, ITERATIONS))
    path = tmp_path / "trace.csv"
    result.write_csv(str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN[seed][key]
