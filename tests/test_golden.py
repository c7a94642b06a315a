"""A golden CLI session: the sha256 of every file and every stdout it makes.

Thirteen ``exrank`` invocations run in-process, in one directory, with
relative paths: ``gen-data`` 40/8 at seed 3; ``alternate --t 2`` and its
``--resume-step 1`` replay; ``evaluate`` in each ablation mode; ``sweep
--k-max 3``; ``train-retriever``, then ``finetune-lm`` on its checkpoints.
The other two tasks follow: ``gen-data --task atsc`` with ``train-retriever
--task atsc``, and ``gen-data --task ate`` with ``alternate --t 1 --task
ate``.
Each output file and each command's stdout is one entry of ``GOLDEN``, so a
refactor that moves any output byte names the file it moved.

The hashes were recorded on ``RECORDED_ON``, and they held at PYTHONHASHSEED
0, 1 and 12345 and at OPENBLAS_NUM_THREADS 1 and 2.  Trained checkpoints
round differently on another platform even at the same versions: OpenBLAS
picks its GEMM kernel by CPU core, and numpy its ``exp``/``log``/``tanh``
loops by SIMD level.  So ``GOLDEN_ON`` holds one hash set per platform
signature, as ``_platform()`` spells it: ``GOLDEN`` for ``RECORDED_ON``, and a
second set for the AVX2-class paths, which an AVX-512 box takes under
``AVX2_ENV`` and which a subprocess test checks there.  An unrecorded platform
is compared with ``GOLDEN``, and the mismatch message names the versions, the
OpenBLAS core and numpy's SIMD targets recorded and running.  A change that
moves output bytes on purpose re-records only the entries it means to change,
on every recorded platform.
"""

import contextlib
import ctypes
import glob
import hashlib
import io
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from exrank.cli import main

# the shared settings of the session's runs; every command reads its own keys
CONFIG = {"seed": 3, "d": 16, "d_r": 16, "m": 8, "k": 2, "finetune_k": 2, "lr": 0.003,
          "r": 0.5}

DATA = ["--train-file", "data/train.jsonl"]
BOTH = [*DATA, "--test-file", "data/test.jsonl"]
FINAL = ["--scorer", "run/scorer_2.ckpt.npz", "--retriever", "run/retriever_2.ckpt.npz"]

# (name, argv, its output directory), in the order they run
SESSION = [
    ("gen-data", ["gen-data", "--train", "40", "--test", "8", "--seed", "3",
                  "--out", "data"], "data"),
    ("alternate", ["alternate", *BOTH, "--t", "2", "--out", "run"], "run"),
    ("alternate-resume", ["alternate", *BOTH, "--t", "2", "--resume-step", "1",
                          "--out", "run"], "run"),
    *((f"evaluate-{mode}", ["evaluate", *BOTH, "--mode", mode, *FINAL,
                            "--out", f"eval-{mode}"], f"eval-{mode}")
      for mode in ("full", "no_retriever", "no_instruction")),
    ("sweep", ["sweep", *BOTH, *FINAL, "--k-max", "3", "--out", "sweep"], "sweep"),
    ("train-retriever", ["train-retriever", *DATA, "--out", "retr"], "retr"),
    ("finetune-lm", ["finetune-lm", *DATA, "--scorer", "retr/scorer.ckpt.npz",
                     "--retriever", "retr/retriever.ckpt.npz", "--out", "ft"], "ft"),
    # the other two tasks: ATSC's one-word targets through labeling and
    # separation, ATE through one schedule step
    ("gen-data-atsc", ["gen-data", "--task", "atsc", "--train", "40", "--test", "8",
                       "--seed", "3", "--out", "data-atsc"], "data-atsc"),
    ("train-retriever-atsc", ["train-retriever", "--task", "atsc", "--train-file",
                              "data-atsc/train.jsonl", "--out", "retr-atsc"],
     "retr-atsc"),
    ("gen-data-ate", ["gen-data", "--task", "ate", "--train", "40", "--test", "8",
                      "--seed", "3", "--out", "data-ate"], "data-ate"),
    ("alternate-ate", ["alternate", "--task", "ate", "--train-file", "data-ate/train.jsonl",
                       "--test-file", "data-ate/test.jsonl", "--t", "1", "--out", "run-ate"],
     "run-ate"),
]

# train-retriever and finetune-lm run step 1 of the schedule: their checkpoints
# hash as alternate's retriever_1 and scorer_1, and the warmed scorer as scorer_0
GOLDEN = {
    "gen-data stdout": "f73c46c88f630cb158f2a6a5167f46e56b82dd8a9510da684b214be786dc12cb",
    "gen-data data/run.json": "428bff669c7c8b3584f0f8ef6dc7f9469620e7e01b847e7c1fba33e9edd58d2e",
    "gen-data data/test.jsonl": "f48904ce2c2f7e85463ccc0d0101a9639fb2f49487cea323461d4270ff4adac8",
    "gen-data data/train.jsonl": "6db721bbe68461e4a500cd2e7e9e9b0ced1302167b7fba38ebbc5d25c6a0a3c6",
    "alternate stdout": "025a7faeba610989bfca1dd6d994a105976f2060945b596a2b26b18149211b40",
    "alternate run/metrics.tsv": "2f35ebceda5224bfa813e8f52aeccbe86ca18fd0ee995dce7cf17e57ff78325e",
    "alternate run/retriever_0.ckpt.npz": "1989dfb5b6b75185906b8134c306859fc8ea9ff07c1e10af6784b7df770915ea",
    "alternate run/retriever_1.ckpt.npz": "7e6ca972564bb74b6ead28856accd4348e5f239f97e6336bf0bd87a10ca44a18",
    "alternate run/retriever_2.ckpt.npz": "badcc4244869dcff9da68d2f421d79db3b283bc3a2c839d14209a8381bd9169d",
    "alternate run/run.json": "067824d24e742e01ed473de73401fe1799995cfd37f0fd53041a524134b1d552",
    "alternate run/scorer_0.ckpt.npz": "d9c3a6e2d37f3184aa9ad53efc67220c39e270255de7920b22e707e296255a02",
    "alternate run/scorer_1.ckpt.npz": "bc259039a50571db529749af9622664d25870ecd8d83be97608c974c76d057dc",
    "alternate run/scorer_2.ckpt.npz": "00a832cf41078e17b4dcf8a560220145791aa08a14a7dde4d55e284540562911",
    "alternate run/scorer_init.ckpt.npz": "683519fe1cc0d27014b59a5cf4d3aa5407c89dfe885ee6353c4c782f2b083500",
    "alternate-resume stdout": "025a7faeba610989bfca1dd6d994a105976f2060945b596a2b26b18149211b40",
    "alternate-resume run/metrics.tsv": "2f35ebceda5224bfa813e8f52aeccbe86ca18fd0ee995dce7cf17e57ff78325e",
    "alternate-resume run/retriever_0.ckpt.npz": "1989dfb5b6b75185906b8134c306859fc8ea9ff07c1e10af6784b7df770915ea",
    "alternate-resume run/retriever_1.ckpt.npz": "7e6ca972564bb74b6ead28856accd4348e5f239f97e6336bf0bd87a10ca44a18",
    "alternate-resume run/retriever_2.ckpt.npz": "badcc4244869dcff9da68d2f421d79db3b283bc3a2c839d14209a8381bd9169d",
    "alternate-resume run/run.json": "067824d24e742e01ed473de73401fe1799995cfd37f0fd53041a524134b1d552",
    "alternate-resume run/scorer_0.ckpt.npz": "d9c3a6e2d37f3184aa9ad53efc67220c39e270255de7920b22e707e296255a02",
    "alternate-resume run/scorer_1.ckpt.npz": "bc259039a50571db529749af9622664d25870ecd8d83be97608c974c76d057dc",
    "alternate-resume run/scorer_2.ckpt.npz": "00a832cf41078e17b4dcf8a560220145791aa08a14a7dde4d55e284540562911",
    "alternate-resume run/scorer_init.ckpt.npz": "683519fe1cc0d27014b59a5cf4d3aa5407c89dfe885ee6353c4c782f2b083500",
    "evaluate-full stdout": "3a48b07628186d8b463cb0617207421806f168b70d41d5487134e50367a29ea5",
    "evaluate-full eval-full/metrics.tsv": "f564f0ad6b8bc5b9cbf76ef7680a3d9c71f363cf0deb61ac4977fbdf934ff6e8",
    "evaluate-full eval-full/predictions.jsonl": "ef072db4defe1aae42eaaf4c0bdfaa95bd0edd542a7588f16beebdecd67cc193",
    "evaluate-full eval-full/run.json": "17cac8f73e7c3d2f761af386d77c95fefdf1ba9ad0729b73c36693a91b3396e9",
    "evaluate-no_retriever stdout": "3d3ebad9380b23761c83223c9bc577f7ecc61a386e042f6c3a5182101707c862",
    "evaluate-no_retriever eval-no_retriever/metrics.tsv": "572f6ee7410b4041de20d9f91a9efff8ada5b84ce927b0cae1530ac70a88caa5",
    "evaluate-no_retriever eval-no_retriever/predictions.jsonl": "e82fec25ea1e7b6edad9b5e5b043a59b37271d5127b2ace64a50beb24c835c26",
    "evaluate-no_retriever eval-no_retriever/run.json": "24c93d4ae97983d4dea98da65ff36cbef7de9ba15b7b54c7b684d7bc9bcc862b",
    "evaluate-no_instruction stdout": "26d6f73c3ed3595809843aa3287ad6c5e2e5218678cefdbdf7fbde0d80c3759b",
    "evaluate-no_instruction eval-no_instruction/metrics.tsv": "6386fd3a6ef7abf8e1067649cf7e896e196a87d90ee78263bd6e3f75fd241c29",
    "evaluate-no_instruction eval-no_instruction/predictions.jsonl": "51183a3a67e0459c29f2c6e4a422620c2cd793b566f5b5266d328de4217dafe7",
    "evaluate-no_instruction eval-no_instruction/run.json": "ce05c4da7699bbf4a463ef8069ed6179dc74644a3bd38dd29cbde81531e193a7",
    "sweep stdout": "6343b0de0fa532b2bf22f8ae9a5e81d62019680a6129986f647956c7c2cf40e0",
    "sweep sweep/run.json": "b39006244a1df93f060c422bd797cd6ccc523ec30bace00597370ad30aa5ad7a",
    "sweep sweep/sweep.tsv": "565cf2adde01d22b57949ef8da3fdc2d832b9303c7460c857355c198d730ba04",
    "train-retriever stdout": "e2d8c4eb2d7eca07c4ea77772c5a1ff2f73f0edcce95d3f3192ca29d9c55d32c",
    "train-retriever retr/retriever.ckpt.npz": "7e6ca972564bb74b6ead28856accd4348e5f239f97e6336bf0bd87a10ca44a18",
    "train-retriever retr/run.json": "cffa4e53a39b8045b520ed4c099897424191eb6480c51da2cdb7040c0f64a4f4",
    "train-retriever retr/scorer.ckpt.npz": "d9c3a6e2d37f3184aa9ad53efc67220c39e270255de7920b22e707e296255a02",
    "train-retriever retr/training.tsv": "73830409898921fff1589a0e4a07e891d678e4cb28180e6cc29473b97ed95073",
    "finetune-lm stdout": "681347fe50f30277ee69957250caadedb587bf8ed8683a651aaadd3a62d0d6fe",
    "finetune-lm ft/run.json": "f8cc38ed66ebf1d3adf2b705ef44d38580525744dbe9ec18508172e5855e9a14",
    "finetune-lm ft/scorer.ckpt.npz": "bc259039a50571db529749af9622664d25870ecd8d83be97608c974c76d057dc",
    "gen-data-atsc stdout": "49c3c5f0c2ac38614cfc951f65f4de615c6970389a838a0f86faec11b5a051fc",
    "gen-data-atsc data-atsc/run.json": "eb7760be93401b8a7c9cf235e8f98b3adbd958ddf37568baa54581c2efa1e2f9",
    "gen-data-atsc data-atsc/test.jsonl": "315cafc6a8d27f5d04c287a0feeaed44ef923be0523c60d3fadc3a3f61a553f9",
    "gen-data-atsc data-atsc/train.jsonl": "2df99b509b380b22ff1e0eae034e71ed4f5d15280fcc4984fcc9478d24a58eec",
    "train-retriever-atsc stdout": "95b9acb69e147b9a929f5009de821a9cbcef9b4e8d7261f5cde84ad8175ac4bd",
    "train-retriever-atsc retr-atsc/retriever.ckpt.npz": "ced70ffc559380fca21dbd802e66b7739d602e880621b2296a2eb6d67f991d1d",
    "train-retriever-atsc retr-atsc/run.json": "f0251ad48c38a435a807eced0a8c5d9e949a4da68694e3d6ea907678026fd5d2",
    "train-retriever-atsc retr-atsc/scorer.ckpt.npz": "dc9e4e36e484aa5d3f0ddf5a5b6ef448eb2c625124572d55662f1d9372cfbbb4",
    "train-retriever-atsc retr-atsc/training.tsv": "4a3490756c9493f87afa8cd35451c4fdb702c4fcc471ac1b6c2b0a45acf8c86e",
    "gen-data-ate stdout": "ef3e056a5356f729478ac840d9708368d7c8a8e038fbda73540b93251367e4d9",
    "gen-data-ate data-ate/run.json": "413d6083d1b649e9f59bb1623a160a4652d606383d13e8946c4567cf6bb34531",
    "gen-data-ate data-ate/test.jsonl": "f48904ce2c2f7e85463ccc0d0101a9639fb2f49487cea323461d4270ff4adac8",
    "gen-data-ate data-ate/train.jsonl": "6db721bbe68461e4a500cd2e7e9e9b0ced1302167b7fba38ebbc5d25c6a0a3c6",
    "alternate-ate stdout": "a6c83ddcaa1aa5544f54327b9cc2201d1ec19cbc12fdaa354d2bf45f836f21c9",
    "alternate-ate run-ate/metrics.tsv": "beb797aee89d8e2a7557d821ef47c4940c929436a880ee226f749811f183d882",
    "alternate-ate run-ate/retriever_0.ckpt.npz": "a02a8c7cad6f49a1fc9899eb6cf939443bf431ac34eeda68dc98a4ddce3de39c",
    "alternate-ate run-ate/retriever_1.ckpt.npz": "527caa35457b8bfaa77026b7c90228c2a7d43c46b7221e743a1ce0cecc98a8ad",
    "alternate-ate run-ate/run.json": "8976258a49de781c80402b07d7ded800366fe195e5a1bb8911041e4642d61a57",
    "alternate-ate run-ate/scorer_0.ckpt.npz": "16d032a2f767969985b6f16cb4d694d0b14ec2fc99c892b2ed7d65b14b745c69",
    "alternate-ate run-ate/scorer_1.ckpt.npz": "d3e6b60a586c8056d91305cc6bd924bbccffd90ce70d3a45336538139c8cfa4f",
    "alternate-ate run-ate/scorer_init.ckpt.npz": "7ea088f9608eb02954cd408af805156c618336327f060200aa4d4f61307defa3",
}


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


RECORDED_ON = ("numpy 2.4.6 on scipy-openblas 0.3.31.188.0, OpenBLAS core SkylakeX, "
               "numpy SIMD found X86_V3 X86_V4 AVX512_ICL AVX512_SPR")

# The AVX2-class paths, which an AVX-512 box takes under AVX2_ENV: OpenBLAS's
# Haswell kernels and numpy's X86_V3 loops
AVX2 = ("numpy 2.4.6 on scipy-openblas 0.3.31.188.0, OpenBLAS core Haswell, "
        "numpy SIMD found X86_V3")
AVX2_ENV = {"OPENBLAS_CORETYPE": "Haswell",
            "NPY_DISABLE_CPU_FEATURES": "X86_V4,AVX512_ICL,AVX512_SPR"}

# Each recorded platform's hashes, by its ``_platform()``.  On AVX2 only the
# trained checkpoints and the run.jsons that hash them differ from GOLDEN.
GOLDEN_ON = {
    RECORDED_ON: GOLDEN,
    AVX2: {
        **GOLDEN,
        "alternate run/retriever_1.ckpt.npz": "faf7d95e166e2952e2df7b10ce11872a548616fffbd8564c9f0a57902d47d840",
        "alternate run/retriever_2.ckpt.npz": "bcc1bb91fb2dd5fb37fb79cf9b8cb8e6de9992183334585b1303e7d7955a6846",
        "alternate run/run.json": "ba363c26e679d476eb3b50854c01ad7bbc558cc4b986a12ce9e5b4a24ff49451",
        "alternate run/scorer_0.ckpt.npz": "879d9a54c933279cec7b31303ef99869c921c4e41359e5ead136f031672ad4d0",
        "alternate run/scorer_1.ckpt.npz": "bc4491a6b96d57ce5530fe9d5c447cc398bebf026f9d6a142b76d74917b9e0c2",
        "alternate run/scorer_2.ckpt.npz": "2e25421aa0cab67f128d23446452df33cd136c8ef27bb620d3868a6e048b3ebb",
        "alternate-resume run/retriever_1.ckpt.npz": "faf7d95e166e2952e2df7b10ce11872a548616fffbd8564c9f0a57902d47d840",
        "alternate-resume run/retriever_2.ckpt.npz": "bcc1bb91fb2dd5fb37fb79cf9b8cb8e6de9992183334585b1303e7d7955a6846",
        "alternate-resume run/run.json": "ba363c26e679d476eb3b50854c01ad7bbc558cc4b986a12ce9e5b4a24ff49451",
        "alternate-resume run/scorer_0.ckpt.npz": "879d9a54c933279cec7b31303ef99869c921c4e41359e5ead136f031672ad4d0",
        "alternate-resume run/scorer_1.ckpt.npz": "bc4491a6b96d57ce5530fe9d5c447cc398bebf026f9d6a142b76d74917b9e0c2",
        "alternate-resume run/scorer_2.ckpt.npz": "2e25421aa0cab67f128d23446452df33cd136c8ef27bb620d3868a6e048b3ebb",
        "train-retriever retr/retriever.ckpt.npz": "faf7d95e166e2952e2df7b10ce11872a548616fffbd8564c9f0a57902d47d840",
        "train-retriever retr/run.json": "5a0dd24e8c54377d63c3bc5ce907bf2b5300b1bd2723ee00713a3a0f0401b50d",
        "train-retriever retr/scorer.ckpt.npz": "879d9a54c933279cec7b31303ef99869c921c4e41359e5ead136f031672ad4d0",
        "finetune-lm ft/run.json": "2237049a8f0b04c1970b84cd3f734c7bfd143918569e544090b2ccd9823ff76f",
        "finetune-lm ft/scorer.ckpt.npz": "bc4491a6b96d57ce5530fe9d5c447cc398bebf026f9d6a142b76d74917b9e0c2",
        "train-retriever-atsc retr-atsc/retriever.ckpt.npz": "7002aca2728961dfdea0ed88c898d0bed561b469dee828c706a49bb17773de5a",
        "train-retriever-atsc retr-atsc/run.json": "f160fb5eaf146c7f962f8318616c7bc4ad6858dfbfb603de91c5f882c6145f92",
        "train-retriever-atsc retr-atsc/scorer.ckpt.npz": "ab39897eeb3d115bcb95d5d7990ba9623c449d8bcfd48f3f62f633d2a44b9e29",
        "alternate-ate run-ate/retriever_1.ckpt.npz": "ffde508eab32c2d0e728ad46117f356f8e9723bc01729d346c967c52c41b4f70",
        "alternate-ate run-ate/run.json": "0815c718ecb5867272cd5517a7734cb21ebc1c0003bf313489fce5f63bd96b7e",
        "alternate-ate run-ate/scorer_0.ckpt.npz": "3b7da310342eb896babc97120db7488f254adeed2b3a9df86ec5e33416fb7dd2",
        "alternate-ate run-ate/scorer_1.ckpt.npz": "0dc0c6e9b587a7842dcb04641dba05b49ec505749350481d91a40e23eadcd816",
    },
}


def _openblas_core():
    """The core name of the OpenBLAS bundled with numpy, or None."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*.so*"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_corename64_", "openblas_get_corename"):
            query = getattr(lib, symbol, None)
            if query is not None:
                query.restype = ctypes.c_char_p
                return query().decode()
    return None


def _platform():
    """What decides how this platform rounds, spelled as ``RECORDED_ON``."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "an unnamed BLAS"
    try:  # the "found" list of np.show_runtime(), which only prints it
        from numpy._core import _multiarray_umath as umath

        found = " ".join(f for f in umath.__cpu_dispatch__ if umath.__cpu_features__.get(f))
    except (ImportError, AttributeError):
        found = "unknown"
    return (f"numpy {np.__version__} on {blas}, OpenBLAS core {_openblas_core()}, "
            f"numpy SIMD found {found or 'none'}")


@pytest.fixture(scope="module")
def session(tmp_path_factory):
    """The entries of each invocation, by name: its stdout's hash and the hash
    of every file in its output directory once it has run."""
    root = tmp_path_factory.mktemp("golden")
    (root / "golden.cfg").write_text(
        "".join(f"{key} = {value}\n" for key, value in CONFIG.items()))
    entries = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(root)
        for name, argv, out in SESSION:
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                rc = main([*argv, "--config", "golden.cfg"])
            assert rc == 0, f"{name} exited {rc}"
            entries[name] = {f"{name} stdout": _sha256(stdout.getvalue().encode())}
            for path in sorted(Path(out).iterdir()):
                entries[name][f"{name} {path.as_posix()}"] = _sha256(path.read_bytes())
    return entries


@pytest.mark.parametrize("name", [name for name, _, _ in SESSION])
def test_the_session_writes_its_recorded_bytes(session, name):
    got, running = session[name], _platform()
    recorded = running if running in GOLDEN_ON else RECORDED_ON
    want = {key: value for key, value in GOLDEN_ON[recorded].items()
            if key.split(" ", 1)[0] == name}
    moved = sorted(key for key in got.keys() | want.keys()
                   if got.get(key) != want.get(key))
    assert not moved, (f"{name}: {moved} differ from the recorded hashes "
                       f"(recorded on {recorded}; running on {running})")


def test_the_session_writes_the_avx2_bytes_under_the_emulated_signature():
    """The session test again, in a subprocess that takes the AVX2-class paths."""
    if _platform() == AVX2:
        pytest.skip("the native platform is AVX2, which the session test checks")
    env = {**os.environ, **AVX2_ENV}
    here = Path(__file__).resolve().parent
    probe = subprocess.run(
        [sys.executable, "-c", "import test_golden; print(test_golden._platform())"],
        cwd=here, capture_output=True, text=True,
        env={**env, "PYTHONPATH": os.pathsep.join([str(here.parent / "src"), str(here)])})
    if probe.stdout.strip() != AVX2:
        pytest.skip(f"this box cannot emulate {AVX2}; under AVX2_ENV a probe reports "
                    f"{(probe.stdout or probe.stderr).strip()[-300:]!r}")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         f"{Path(__file__).name}::test_the_session_writes_its_recorded_bytes"],
        cwd=here, capture_output=True, text=True, env=env)
    assert run.returncode == 0, run.stdout[-4000:] + run.stderr[-1000:]


def test_the_mismatch_message_names_the_core_and_the_simd_targets():
    running = _platform()
    assert running.startswith(f"numpy {np.__version__} on ")
    assert "OpenBLAS core " in running and "numpy SIMD found " in running
