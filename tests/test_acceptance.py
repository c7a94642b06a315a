"""Acceptance suite: one criterion per test, one printed PASS/FAIL line each.

Numerical criteria use fixed tolerances; behavioral criteria compare against
brute-force oracles; the trend criterion runs the full pipeline over five
seeds.  Every test also enforces its wall-clock budget.
"""

import time

import numpy as np

from exrank import contrastive
from exrank.alternating import (
    build_vocabulary,
    finetune_lm,
    run_schedule,
    stage_tag,
    warmup_scorer,
)
from exrank.config import Config, substream
from exrank.contrastive import (
    _batch_loss_and_grads,
    infonce_loss,
    label_candidates,
    train_retriever,
)
from exrank.corpus import (
    AspectLabel,
    NO_ASPECT_TERM,
    Polarity,
    Task,
    generate_synthetic,
    parse_output,
    parse_output_with_diagnostics,
    serialize_label,
)
from exrank.evaluation import (
    AblationMode,
    atsc_accuracy,
    k_sweep,
    run_inference,
    tuple_f1,
)
from exrank.retriever import (
    CandidateIndex,
    encode_text,
    init_retriever,
    load_retriever,
    retrieve,
)
from exrank.scorer import (
    LogLikelihood,
    generate,
    init_scorer,
    load_scorer,
    nll_and_grads,
    score,
    step_logits,
)
from exrank.template import (
    Candidate,
    load_templates,
    make_candidate,
    query_text,
    render,
    task_input,
)
from exrank.vocab import Vocabulary


def _report(capsys, num, ok, detail):
    line = f"[acceptance {num}] {'PASS' if ok else 'FAIL'} — {detail}"
    with capsys.disabled():
        print("\n" + line, flush=True)
    assert ok, line


def _budget(num, t0, limit):
    elapsed = time.perf_counter() - t0
    assert elapsed < limit, f"criterion {num} took {elapsed:.1f}s (budget {limit}s)"
    return elapsed


def test_acceptance_1_gradient_suites(capsys):
    t0 = time.perf_counter()
    eps = 1e-5
    worst = 0.0

    vocab = Vocabulary.build(["alpha beta gamma delta"])
    scorer = init_scorer(vocab, d=3, max_len=16, seed=17)
    rng = np.random.default_rng(17)
    scorer.params["w_out"] = rng.normal(0.0, 0.3, scorer.params["w_out"].shape)
    scorer.params["b_out"] = rng.normal(0.0, 0.3, scorer.params["b_out"].shape)
    prompt, target = "alpha beta gamma", "delta alpha"
    _, grads = nll_and_grads(scorer, prompt, target, scorer.params.zeros_like())
    for key, g in grads.items():
        flat = scorer.params[key].reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            up, _ = nll_and_grads(scorer, prompt, target, scorer.params.zeros_like())
            flat[i] = orig - eps
            dn, _ = nll_and_grads(scorer, prompt, target, scorer.params.zeros_like())
            flat[i] = orig
            num = (up - dn) / (2 * eps)
            if max(abs(num), abs(gflat[i])) < 1e-8:
                continue
            worst = max(worst, abs(num - gflat[i]) / max(abs(num), abs(gflat[i])))
    scorer_worst = worst

    retr = init_retriever(vocab, d_r=3, max_len=16, seed=23)
    batch = [("Input: alpha", "Input: beta Output: gamma",
              "Input: delta Output: alpha")]  # B=1: one own negative
    _, rgrads = _batch_loss_and_grads(retr, batch, retr.params.zeros_like())
    worst = 0.0
    for key, g in rgrads.items():
        flat = retr.params[key].reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            up, _ = _batch_loss_and_grads(retr, batch, retr.params.zeros_like())
            flat[i] = orig - eps
            dn, _ = _batch_loss_and_grads(retr, batch, retr.params.zeros_like())
            flat[i] = orig
            num = (up - dn) / (2 * eps)
            if max(abs(num), abs(gflat[i])) < 1e-8:
                continue
            worst = max(worst, abs(num - gflat[i]) / max(abs(num), abs(gflat[i])))
    retr_worst = worst

    elapsed = _budget(1, t0, 30.0)
    ok = scorer_worst < 1e-4 and retr_worst < 1e-4
    _report(capsys, 1, ok, f"gradient checks: scorer rel err {scorer_worst:.2e}, "
                   f"retriever rel err {retr_worst:.2e} (< 1e-4; {elapsed:.1f}s)")


def test_acceptance_2_normalization(capsys):
    t0 = time.perf_counter()
    words = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta"]
    vocab = Vocabulary.build([" ".join(words)])
    state = init_scorer(vocab, d=8, max_len=32, seed=2)
    rng = np.random.default_rng(2)
    state.params["w_out"] = rng.normal(0.0, 0.5, state.params["w_out"].shape)
    state.params["b_out"] = rng.normal(0.0, 0.5, state.params["b_out"].shape)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 12))
        prompt = " ".join(words[rng.integers(8)] for _ in range(n))
        prefix = [int(rng.integers(len(vocab))) for _ in range(rng.integers(0, 4))]
        dist = step_logits(state, prompt, prefix)
        worst = max(worst, abs(float(dist.sum()) - 1.0))
        assert np.all(dist >= 0.0)
    elapsed = _budget(2, t0, 10.0)
    _report(capsys, 2, worst <= 1e-6,
            f"1000 fuzzed step distributions sum to 1 (worst dev {worst:.1e} "
            f"<= 1e-6; {elapsed:.1f}s)")


def test_acceptance_3_ranking_oracle(monkeypatch, capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(3)
    vocab = Vocabulary.build(["alpha beta gamma delta"])
    state = init_retriever(vocab, d_r=4, max_len=16, seed=3)

    mismatches = 0
    for trial in range(200):
        n = int(np.exp(rng.uniform(np.log(2), np.log(2000))))
        matrix = rng.normal(size=(n, state.d_r))
        if trial % 2 == 0:
            matrix = np.round(matrix)  # exact ties on purpose
        cands = [Candidate(id=i, input=f"c{i}", output="y") for i in range(n)]
        index = CandidateIndex(matrix=matrix, ids=np.arange(n), candidates=cands,
                               version=state.version)
        qid = int(rng.integers(n))
        m = int(rng.integers(1, min(n, 20) + 1))
        query = type("Q", (), {"id": qid, "text": "alpha beta"})()
        exclude = qid if trial % 4 < 2 else None  # in-pool and cross-split queries
        got = [sc.id for sc in retrieve(state, index, query.text, m, exclude_id=exclude)]
        q = encode_text(state, query_text("alpha beta"))
        sims = matrix @ q
        want = sorted((i for i in range(n) if i != exclude),
                      key=lambda i: (-sims[i], i))[:m]
        if got != want:
            mismatches += 1

    def fake_score(scorer, prompt, target):
        val = float(scorer[prompt.split("cand", 1)[1].split(" ", 1)[0]])
        return LogLikelihood(total=val, per_token=[val])

    monkeypatch.setattr(contrastive.scorer_mod, "score", fake_score)
    from exrank.corpus import Sample

    partition_bad = 0
    for _ in range(500):
        k = int(rng.integers(1, 5))
        n = int(rng.integers(2 * k, 2 * k + 12))
        deltas = np.round(rng.normal(size=n), 1)  # duplicates happen
        table = {str(i): deltas[i] for i in range(n)}
        cands = [Candidate(id=i, input=f"cand{i} ", output="y") for i in range(n)]
        query = Sample(id=n + 1, text="q",
                       labels=[AspectLabel("food", Polarity.POSITIVE)])
        c_plus, c_minus = label_candidates(query, cands, table, load_templates(), k,
                                           Task.ASPE)
        plus_ids = {sc.id for sc in c_plus}
        minus_ids = {sc.id for sc in c_minus}
        ok = (
            len(c_plus) == k and len(c_minus) == k
            and not (plus_ids & minus_ids)
            and plus_ids | minus_ids <= set(range(n))
            and min(sc.delta for sc in c_plus) >= max(sc.delta for sc in c_minus)
        )
        if not ok:
            partition_bad += 1

    elapsed = _budget(3, t0, 60.0)
    _report(capsys, 3, mismatches == 0 and partition_bad == 0,
            f"retrieve matched exhaustive sort on 200 pools "
            f"({mismatches} mismatches), candidate labeling partition held on "
            f"500 fuzz cases ({partition_bad} violations); {elapsed:.1f}s")


def test_acceptance_4_closed_form_infonce(capsys):
    t0 = time.perf_counter()
    worst = 0.0
    for B in (1, 2, 4, 8):
        q = np.ones(3)
        loss = infonce_loss(q, np.ones(3), [np.ones(3)] * (2 * B - 1))
        worst = max(worst, abs(loss - np.log(2 * B)))
    b1 = infonce_loss(np.array([1.0, 0.0]), np.array([1.0, 0.0]),
                      [np.array([0.0, 0.0])])
    b1_err = abs(b1 - 0.31326168751822286)
    elapsed = _budget(4, t0, 5.0)
    _report(capsys, 4, worst <= 1e-9 and b1_err <= 1e-6,
            f"uniform-similarity loss = ln(2B) to {worst:.1e} (<= 1e-9), "
            f"B=1 closed form to {b1_err:.1e} (<= 1e-6); {elapsed:.1f}s")


def test_acceptance_5_metric_oracle(capsys):
    t0 = time.perf_counter()
    hand = tuple_f1([[AspectLabel("food", Polarity.POSITIVE)]],
                    [[AspectLabel("food", Polarity.POSITIVE),
                      AspectLabel("service", Polarity.NEGATIVE)]], Task.ASPE)
    hand_ok = (hand.precision == 1.0 and hand.recall == 0.5
               and abs(hand.f1 - 2.0 / 3.0) < 1e-12)

    rng = np.random.default_rng(5)
    terms = ["food", "staff", "wine", "decor", "menu", NO_ASPECT_TERM]
    pols = [Polarity.POSITIVE, Polarity.NEGATIVE, Polarity.NEUTRAL]
    f1_bad = acc_bad = 0
    for _ in range(500):
        n = int(rng.integers(1, 5))
        preds, golds = [], []
        for _ in range(n):
            def draw():
                labels = []
                for _ in range(rng.integers(0, 4)):
                    term = terms[rng.integers(len(terms))]
                    pol = (Polarity.NONE if term == NO_ASPECT_TERM
                           else pols[rng.integers(3)])
                    labels.append(AspectLabel(term, pol))
                return labels
            preds.append(draw())
            golds.append(draw())
        m = tuple_f1(preds, golds, Task.ASPE)
        tp = fp = fn = 0
        for p_labels, g_labels in zip(preds, golds):
            p = {(l.term.strip().lower(), l.polarity) for l in p_labels
                 if not (l.term == NO_ASPECT_TERM and l.polarity == Polarity.NONE)}
            g = {(l.term.strip().lower(), l.polarity) for l in g_labels
                 if not (l.term == NO_ASPECT_TERM and l.polarity == Polarity.NONE)}
            tp += len(p & g)
            fp += len(p - g)
            fn += len(g - p)
        prec = tp / (tp + fp) if tp + fp else 0.0
        rec = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
        if not (np.isclose(m.precision, prec) and np.isclose(m.recall, rec)
                and np.isclose(m.f1, f1)):
            f1_bad += 1
    for _ in range(500):
        n = int(rng.integers(1, 8))
        preds = [pols[rng.integers(3)] for _ in range(n)]
        golds = [pols[rng.integers(3)] for _ in range(n)]
        m = atsc_accuracy(preds, golds)
        want = sum(p == g for p, g in zip(preds, golds)) / n
        if not np.isclose(m.accuracy, want):
            acc_bad += 1

    elapsed = _budget(5, t0, 30.0)
    _report(capsys, 5, hand_ok and f1_bad == 0 and acc_bad == 0,
            f"hand example P=1 R=0.5 F1=2/3 exact, 1000 fuzzed instances "
            f"matched brute force ({f1_bad}+{acc_bad} mismatches); {elapsed:.1f}s")


def test_acceptance_6_grammar_round_trip(capsys):
    t0 = time.perf_counter()
    train, test = generate_synthetic(500, 100, 6)
    bad = 0
    for ds in (train, test):
        for s in ds.samples:
            got = parse_output(serialize_label(s, Task.ASPE), Task.ASPE)
            if got != s.labels:
                bad += 1
    case_strings = [
        "food: positive",
        "noaspectterm: none",
        "Sushi: positive",
        "asparagus, truffle oil, parmesan bruschetta: positive",
        "falafel: negative; chicken: positive",
    ]
    for text in case_strings:
        labels = parse_output(text, Task.ASPE)
        from exrank.corpus import Sample

        back = serialize_label(
            Sample(id=0, text="", labels=labels), Task.ASPE
        )
        if back != text:
            bad += 1
    elapsed = _budget(6, t0, 5.0)
    _report(capsys, 6, bad == 0,
            f"parse/serialize identity on 600 corpus samples and "
            f"{len(case_strings)} case-study strings ({bad} failures); "
            f"{elapsed:.1f}s")


def test_acceptance_7_method_premise_trend(capsys):
    t0 = time.perf_counter()
    seeds = (101, 102, 103, 104, 105)
    a_wins = b_wins = c_wins = 0
    details = []
    for seed in seeds:
        train, test = generate_synthetic(500, 100, seed)
        cfg = Config(k=4, m=24, r=0.4, batch_size=2, lr=0.003, weight_decay=0.0,
                     epochs_retriever=4, epochs_lm=3, finetune_k=4, t=2,
                     d=64, d_r=64, seed=seed, warmup_epochs=3)
        import tempfile

        out = tempfile.mkdtemp(prefix=f"accept7-{seed}-")
        run_schedule(train, test, cfg, out)
        from pathlib import Path

        scorer = load_scorer(Path(out) / f"scorer_{cfg.t}.ckpt.npz")
        retr = load_retriever(Path(out) / f"retriever_{cfg.t}.ckpt.npz")
        # the warmed-up LM before any retrieval-augmented fine-tuning
        frozen = load_scorer(Path(out) / "scorer_0.ckpt.npz")
        full, _ = run_inference(scorer, retr, test, 4, AblationMode.FULL,
                                train, cfg)
        noex, _ = run_inference(scorer, retr, test, 0, AblationMode.FULL,
                                train, cfg)
        froz, _ = run_inference(frozen, retr, test, 4, AblationMode.FULL,
                                train, cfg)

        from exrank.retriever import build_index

        index = build_index(retr, train)
        templates = load_templates(cfg.template_dir)
        rng = substream(seed, "trend-random-example")
        cands = [make_candidate(s, train.task) for s in train.samples]
        ll_top, ll_rand = [], []
        for s in test.samples:
            q_input = task_input(s, train.task)
            target = serialize_label(s, train.task)
            top = retrieve(retr, index, q_input, 1)[0].candidate
            rand = cands[rng.integers(len(cands))]
            ll_top.append(score(scorer, render(templates, train.task, [top], q_input),
                                target).total)
            ll_rand.append(score(scorer, render(templates, train.task, [rand], q_input),
                                 target).total)
        a = full.f1 >= noex.f1
        b = full.f1 >= froz.f1
        c = float(np.mean(ll_top)) > float(np.mean(ll_rand))
        a_wins += a
        b_wins += b
        c_wins += c
        details.append(f"seed {seed}: full={full.f1:.3f} noex={noex.f1:.3f} "
                       f"frozen={froz.f1:.3f} ll_top={np.mean(ll_top):.2f} "
                       f"ll_rand={np.mean(ll_rand):.2f}")
    elapsed = _budget(7, t0, 300.0)
    with capsys.disabled():
        for line in details:
            print("    " + line)
    _report(capsys, 7, a_wins >= 4 and b_wins >= 4 and c_wins >= 4,
            f"trends over 5 seeds: full>=no example (k=0) {a_wins}/5, "
            f"full>=frozen {b_wins}/5, top-1 LL > random LL {c_wins}/5 "
            f"(each needs >=4/5); {elapsed:.1f}s")


def test_acceptance_8_alternating_contracts(tmp_path, capsys):
    t0 = time.perf_counter()
    train, test = generate_synthetic(60, 12, 8)
    cfg = Config(k=2, m=8, r=0.4, batch_size=2, lr=0.003, weight_decay=0.0,
                 epochs_retriever=1, epochs_lm=1, t=3, d=16, d_r=16,
                 max_gen_len=16, seed=8, warmup_epochs=1)

    state = run_schedule(train, test, cfg, tmp_path / "full")
    lineage_ok = (
        len(state.scorer_ckpts) == 4 and len(state.retriever_ckpts) == 4
        and all((tmp_path / "full" / f"scorer_{s}.ckpt.npz").exists()
                for s in range(4))
    )

    run_schedule(train, test, cfg, tmp_path / "resumed")
    run_schedule(train, test, cfg, tmp_path / "resumed", resume_step=1)
    resume_ok = True
    for s in (2, 3):
        for stem in ("scorer", "retriever"):
            a = np.load(tmp_path / "full" / f"{stem}_{s}.ckpt.npz")
            b = np.load(tmp_path / "resumed" / f"{stem}_{s}.ckpt.npz")
            for key in a.files:
                if not np.array_equal(a[key], b[key]):
                    resume_ok = False
    resume_ok = resume_ok and (
        (tmp_path / "full" / "metrics.tsv").read_text()
        == (tmp_path / "resumed" / "metrics.tsv").read_text()
    )

    cfg1 = Config(**{**cfg.to_dict(), "t": 1})
    run_schedule(train, test, cfg1, tmp_path / "t1")
    vocab = build_vocabulary(train, cfg1)
    scorer = init_scorer(vocab, d=cfg1.d, max_len=cfg1.max_len, seed=cfg1.seed)
    warmup_scorer(scorer, train, cfg1)
    retr = init_retriever(vocab, d_r=cfg1.d_r, max_len=cfg1.max_len,
                          seed=cfg1.seed)
    train_retriever(retr, train, scorer, cfg1, bootstrap_first_epoch=True,
                    seed_tag=stage_tag(1, "retriever-train"))
    finetune_lm(scorer, retr, train, cfg1, seed_tag=stage_tag(1, "finetune-lm"))
    s1 = load_scorer(tmp_path / "t1" / "scorer_1.ckpt.npz")
    r1 = load_retriever(tmp_path / "t1" / "retriever_1.ckpt.npz")
    t1_ok = all(np.array_equal(v, s1.params[k]) for k, v in scorer.params.items())
    t1_ok = t1_ok and all(
        np.array_equal(v, r1.params[k]) for k, v in retr.params.items()
    )

    elapsed = _budget(8, t0, 180.0)
    _report(capsys, 8, lineage_ok and resume_ok and t1_ok,
            f"t=3 lineage of 4 ({lineage_ok}), bit-identical resume "
            f"({resume_ok}), t=1 equals non-alternating pipeline ({t1_ok}); "
            f"{elapsed:.1f}s")


def test_acceptance_9_k_sweep_mechanics(capsys):
    t0 = time.perf_counter()
    train, test = generate_synthetic(60, 12, 9)
    cfg = Config(k=4, m=8, r=0.4, batch_size=2, lr=0.003, weight_decay=0.0,
                 d=16, d_r=16, max_gen_len=16, seed=9, warmup_epochs=1)
    vocab = build_vocabulary(train, cfg)
    scorer = init_scorer(vocab, d=cfg.d, max_len=cfg.max_len, seed=9)
    warmup_scorer(scorer, train, cfg)
    retr = init_retriever(vocab, d_r=cfg.d_r, max_len=cfg.max_len, seed=9)

    rows = k_sweep(scorer, retr, test, 7, train, cfg)
    shape_ok = [row.k for row in rows] == list(range(8))
    # the oracle: generate on each zero-example prompt, parse, score
    templates = load_templates(cfg.template_dir)
    preds, failures = [], 0
    for s in test.samples:
        prompt = render(templates, test.task, [], task_input(s, test.task))
        labels, dropped = parse_output_with_diagnostics(
            generate(scorer, prompt, cfg.max_gen_len), test.task)
        preds.append(labels)
        failures += dropped
    oracle = tuple_f1(preds, [s.labels for s in test.samples], test.task)
    oracle.parse_failures = failures
    row0_ok = rows[0].metrics == oracle

    elapsed = _budget(9, t0, 120.0)
    _report(capsys, 9, shape_ok and row0_ok,
            f"k in 0..7 emitted 8 ascending rows ({shape_ok}), row 0 equals "
            f"the zero-example oracle exactly ({row0_ok}); {elapsed:.1f}s")
