"""Read-side thread safety: once loaded, queries may run concurrently.

The closure cache and the support index's up-set cache fill lazily, so
the first queries race to compute them; the computation is idempotent and
every thread must see the same answers.
"""

import sys
import threading

from vplogic import Leaf, apply_question, load_text, sentence, vp_leq
from vplogic.errors import NotFactual

SOURCE = """
noun potato kind_of vegetable
noun vegetable kind_of food
noun hybrid_car kind_of car
verb bake way_of cook
verb buy way_of own
fact i past_perfect bake * potato
"""


def test_concurrent_queries_agree():
    kb, world = load_text(SOURCE)
    query = Leaf(sentence(kb, "i past_perfect cook*food"))
    a = kb.phrase("buy", ["hybrid_car"], negated=True)
    b = kb.phrase("own", ["car"], negated=True)
    results = []
    errors = []

    def worker():
        try:
            local = []
            for _ in range(200):
                local.append(
                    (world.eval(query), vp_leq(kb, b, a), kb.nouns.leq("potato", "food"))
                )
            results.append(local)
        except Exception as exc:  # pragma: no cover - failure reporting
            errors.append(exc)

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    expected = ("factual", True, True)
    assert all(item == expected for chunk in results for item in chunk)


def _source_with_facts(count):
    """A four-level noun tree, two verb chains, and ``count`` facts on
    eight subjects, one in five of them negated."""
    lines = [f"noun n{k} kind_of n{(k - 1) // 3}" for k in range(1, 40)]
    lines += ["verb bake way_of cook", "verb cook way_of make",
              "verb lease way_of rent", "verb rent way_of hold"]
    for k in range(count):
        subject, noun = f"s{k % 8}", f"n{k // 8 % 40}"
        body = f"not rent*{noun}" if k % 5 == 0 else f"bake*{noun}"
        lines.append(f"fact {subject} past_perfect {body}")
    return "\n".join(lines) + "\n"


def _answers(world, queries):
    out = []
    for query in queries:
        try:
            refined = apply_question(world, "which_kind", query).answers
        except NotFactual:
            refined = None
        out.append((world.status_of(query), world.eval(Leaf(query)), refined))
    return out


def test_concurrent_reads_share_the_support_index():
    kb, world = load_text(_source_with_facts(200))
    assert len(world.facts()) == 200
    index = world._index
    queries = [
        sentence(kb, f"s{k} past_perfect {body}")
        for k in range(8)
        for body in ("cook*n0", "make*n3", "not lease*n1", "not bake*n2", "hold*n9")
    ]
    results = []
    errors = []

    def worker():
        try:
            results.append([_answers(world, queries) for _ in range(3)])
        except Exception as exc:  # pragma: no cover - failure reporting
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors
    assert world._index is index
    expected = _answers(world, queries)
    assert {status for status, _, _ in expected} == {"factual", "not_factual", "unknown"}
    assert all(run == expected for chunk in results for run in chunk)
