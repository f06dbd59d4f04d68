"""Seeded inputs of the three workloads: programs and request streams.

Everything here is a pure function of the workload seed: the same seed
gives a byte-identical request stream (see :func:`stream_bytes`), a
different seed a different one.  The server only ever receives the
generated programs and queries.

Programs come from the families in :mod:`repro.workloads`.  A
*template* is one rendered program; the programs sent to the server are
templates whose predicate names carry a *stamp* suffix.  Renaming every
predicate consistently changes the program text and its content key
(so no cache can serve a stamped program it has not seen) but not the
answer to a renamed query, which lets the answer oracle compute one
reference per template instead of one per request.
"""

from __future__ import annotations

import bisect
import itertools
import json
import random
import re
from dataclasses import dataclass
from typing import Iterator, Union

from repro.lang.pretty import format_program
from repro.workloads import (coprime_sync_database, coprime_sync_program,
                             copy_chain_database, copy_chain_program,
                             first_primes, ring_database,
                             scaled_travel_database, token_ring_program,
                             travel_agent_program)

WORKLOADS = ("warm-ask", "cold-spec", "tier-mixed")

_GOLDEN = (5 ** 0.5 - 1) / 2

#: Deadline (seconds) of the requests that must degrade.  The service
#: checks it before each deepening attempt, so the return time is a
#: step function of the deadline: the end of the attempt during which
#: the deadline passes.  A deadline between two step ends flips from
#: one to the other as the host speeds up or slows down (0.065 s sat
#: mid-step on a single server and on a step end in the tier, whose
#: instrumented workers compute slower).  1 ms passes during the first
#: attempt on any host, so every deadline request runs exactly one
#: attempt and then the degraded path.
DEADLINE_S = 0.001


@dataclass(frozen=True)
class Template:
    """One rendered program plus its seeded query pools."""

    name: str
    text: str
    preds: tuple
    #: Ground closed queries, answered with kind ``ask``.
    asks: tuple
    #: Quantified closed queries, answered with kind ``ask``.
    quantified: tuple = ()
    #: Open conjunctive queries, answered with kind ``answers``.
    opens: tuple = ()
    #: Requests on this template carry this deadline and degrade.
    deadline: Union[float, None] = None


@dataclass(frozen=True)
class Request:
    """One generated request and the reference it is checked against."""

    program: str
    query: str
    kind: str
    deadline: Union[float, None]
    #: (template name, template query, kind): the oracle's lookup key.
    ref: tuple
    #: True for a program no cache has seen (a tier write).
    cold: bool = False

    def wire(self) -> dict:
        """The JSON object POSTed to ``/query``."""
        item = {"program": self.program, "query": self.query,
                "kind": self.kind}
        if self.deadline is not None:
            item["deadline"] = self.deadline
        return item


def _render(rules, facts) -> str:
    return format_program([r for r in rules if not r.is_fact], facts, ())


def _preds(text: str) -> tuple:
    return tuple(sorted(set(re.findall(r"\b([a-z]\w*)\(", text))))


def stamp(text: str, preds: tuple, suffix: str) -> str:
    """Rename every predicate ``p`` of ``text`` to ``p_<suffix>``."""
    if not suffix:
        return text
    pattern = re.compile(r"\b(" + "|".join(map(re.escape, preds))
                         + r")\(")
    return pattern.sub(lambda m: f"{m.group(1)}_{suffix}(", text)


def _depth(rng: random.Random) -> int:
    """A ground timepoint at a seeded depth of up to 10^12."""
    return rng.randrange(10 ** rng.randint(1, 12))


# -- program families --------------------------------------------------------

def travel_template(rng: random.Random, name: str, year: int,
                    resorts: int, n_asks: int = 24) -> Template:
    """The paper's travel-agent ruleset over a scaled database.

    The database is a fixed function of the size: plane start days and
    holidays set the period (``p`` is one or two years) and its start
    ``b``, so drawing them from the workload seed would change a run's
    cost profile from seed to seed.  The seed draws the queries, and
    the workload stamps the predicate names with it.
    """
    facts = scaled_travel_database(resorts, year_length=year,
                                   n_holidays=4, seed=year * 10 + resorts)
    text = _render(travel_agent_program(year), facts)
    asks = []
    for _ in range(n_asks):
        pred = rng.choice(("plane", "plane", "plane", "winter",
                           "holiday"))
        t = _depth(rng)
        if pred == "plane":
            asks.append(f"plane({t}, resort{rng.randrange(resorts)})")
        else:
            asks.append(f"{pred}({t})")
    # Quantified and open queries do not depend on the seed: which of
    # them short-circuit, and how large their answers are, sets the
    # tail of a warm run.
    quantified = [f"exists X: plane({10 ** e + e}, X)" for e in (3, 9)]
    opens = ["holiday(T)", "plane(T, X) and holiday(T)"]
    for r in range(resorts):
        quantified.append(f"exists T: plane(T, resort{r}) and holiday(T)")
        quantified.append(f"exists T: winter(T) and plane(T, resort{r})")
        opens.append(f"plane(T, resort{r}) and holiday(T)")
    return Template(name, text, _preds(text), tuple(asks),
                    tuple(quantified), tuple(opens))


def sync_template(rng: random.Random, name: str, k: int, items: int,
                  n_asks: int = 8,
                  deadline: Union[float, None] = None,
                  max_t: Union[int, None] = None) -> Template:
    """Coprime counters over tokens with the lcm-witness ``sync``."""
    primes = first_primes(k)
    text = _render(coprime_sync_program(primes),
                   coprime_sync_database(primes, items))
    asks = []
    for _ in range(n_asks):
        t = rng.randrange(max_t + 1) if max_t is not None else _depth(rng)
        item = f"item{rng.randrange(items)}"
        if rng.random() < 0.5:
            asks.append(f"sync({t}, {item})")
        else:
            asks.append(f"tick{rng.randrange(k)}({t}, {item})")
    return Template(name, text, _preds(text), tuple(asks),
                    deadline=deadline)


def chain_template(rng: random.Random, name: str, length: int,
                   items: int, n_asks: int = 8) -> Template:
    """A copy chain: each stage lags the previous one by one step."""
    text = _render(copy_chain_program(length), copy_chain_database(items))
    asks = [f"stage{rng.randrange(length + 1)}({_depth(rng)}, "
            f"item{rng.randrange(items)})" for _ in range(n_asks)]
    return Template(name, text, _preds(text), tuple(asks),
                    quantified=(f"exists T: stage{length}(T, item0)",))


def ring_template(rng: random.Random, name: str, processes: int,
                  n_asks: int = 8) -> Template:
    """A token circulating around a ring of processes."""
    text = _render(token_ring_program(), ring_database(processes))
    asks = [f"{rng.choice(('token', 'served'))}({_depth(rng)}, "
            f"proc{rng.randrange(processes)})" for _ in range(n_asks)]
    return Template(name, text, _preds(text), tuple(asks),
                    quantified=(f"exists T: token(T, proc{processes - 1})",))


# -- workloads ---------------------------------------------------------------

class Workload:
    """A workload's templates, working set and request stream."""

    name = ""
    #: Share of quantified requests (when ``request`` draws the kind).
    QUANTIFIED_SHARE = 0.1

    def __init__(self, seed: int):
        self.seed = seed
        self.templates: dict = {}
        #: Programs loaded during warm-up, (template name, stamp), most
        #: popular first.
        self.working_set: list = []
        self.deadline = self._add(
            deadline_template(self._rng("deadline-template")))

    def _rng(self, part: str) -> random.Random:
        return random.Random(f"perfbench:{self.name}:{self.seed}:{part}")

    def _add(self, template: Template) -> Template:
        self.templates[template.name] = template
        return template

    def program(self, template: Template, suffix: str) -> str:
        return stamp(template.text, template.preds, suffix)

    def request(self, template: Template, suffix: str,
                rng: random.Random, cold: bool = False,
                query: Union[str, None] = None) -> Request:
        """A request on ``template`` with ``query`` (a template query),
        drawn from its pools when not given."""
        if query is None:
            pool = (template.quantified if template.quantified
                    and rng.random() < self.QUANTIFIED_SHARE
                    else template.asks)
            query = rng.choice(pool)
        kind = "answers" if query in template.opens else "ask"
        return Request(program=self.program(template, suffix),
                       query=stamp(query, template.preds, suffix),
                       kind=kind, deadline=template.deadline,
                       ref=(template.name, query, kind), cold=cold)

    def warmup_requests(self) -> list:
        """One request per working-set program (loads its spec), least
        popular first: the caches end up holding the hot programs, as
        in the steady state, instead of the first ones loaded."""
        rng = self._rng("warmup")
        return [self.request(self.templates[name], suffix, rng)
                for name, suffix in reversed(self.working_set)]

    def requests(self) -> Iterator[Request]:
        raise NotImplementedError

    @property
    def block(self) -> int:
        """Length of the stream's blocks: from its start, every block
        holds each kind of request at its fixed share, so percentiles
        over whole blocks do not move with where a run happens to stop
        (a median over a mix of a few cost levels otherwise jumps
        between levels)."""
        raise NotImplementedError

    def probe_requests(self, count: int) -> list:
        """Never-seen requests whose deadline is far below their cost:
        each must come back on the degraded path."""
        rng = self._rng("probe")
        return [self.request(self.deadline, f"p{self.seed}x{i}", rng,
                             cold=True) for i in range(count)]


def deadline_template(rng: random.Random) -> Template:
    """``coprime_sync`` with 6 primes (period 30030): several seconds to
    compute, queried only inside the degraded window."""
    return sync_template(rng, "deadline", k=6, items=1, n_asks=16,
                         deadline=DEADLINE_S, max_t=60)


class WarmAsk(Workload):
    """8 travel programs computed during warm-up; asks and answers."""

    name = "warm-ask"
    #: (year length, resorts) of the programs: fixed sizes, so that
    #: seeds vary the facts and queries but not the cost profile.
    SIZES = ((60, 1), (90, 3), (120, 2), (180, 2), (180, 5), (240, 3),
             (365, 2), (365, 4))

    def __init__(self, seed: int):
        super().__init__(seed)
        rng = self._rng("programs")
        for i, (year, resorts) in enumerate(self.SIZES):
            self._add(travel_template(rng, f"travel{i}", year, resorts))
        self.working_set = [(f"travel{i}", f"s{seed}")
                            for i in range(len(self.SIZES))]

    POOLS = ("asks",) * 8 + ("quantified", "opens")

    @property
    def block(self) -> int:
        return len(self.working_set) * len(self.POOLS)

    def requests(self) -> Iterator[Request]:
        """Blocks of 80 in a seeded order: per program, 8 ground asks,
        1 quantified ask and 1 ``answers``, each pool cycled in a seeded
        order.  Fixed shares keep the few expensive queries at the same
        share of every run, so the tail percentile does not move with
        the seed's draws."""
        rng = self._rng("stream")
        cycles = {}
        for name, _ in self.working_set:
            template = self.templates[name]
            for pool in ("asks", "quantified", "opens"):
                queries = getattr(template, pool)
                cycles[name, pool] = itertools.cycle(
                    rng.sample(queries, len(queries)))
        while True:
            block = [(name, suffix, pool)
                     for name, suffix in self.working_set
                     for pool in self.POOLS]
            rng.shuffle(block)
            for name, suffix, pool in block:
                yield self.request(self.templates[name], suffix, rng,
                                   query=next(cycles[name, pool]))


class ColdSpec(Workload):
    """Every request names a never-seen program; one in nine carries a
    deadline far below its compute cost."""

    name = "cold-spec"

    def __init__(self, seed: int):
        super().__init__(seed)
        rng = self._rng("programs")
        # Sized so that, with the server's default instrumentation, a
        # request costs about 0.1-0.2 s.
        self._add(travel_template(rng, "travel-y365-r1", 365, 1,
                                  n_asks=8))
        self._add(travel_template(rng, "travel-y180-r3", 180, 3,
                                  n_asks=8))
        self._add(sync_template(rng, "sync-k4-n3", 4, 3))
        self._add(sync_template(rng, "sync-k4-n4", 4, 4))
        self._add(chain_template(rng, "chain-l60", 60, 20))
        self._add(chain_template(rng, "chain-l80", 80, 20))
        self._add(ring_template(rng, "ring-p30", 30))
        self._add(ring_template(rng, "ring-p40", 40))

    @property
    def block(self) -> int:
        return len(self.templates)

    def warmup_requests(self) -> list:
        """No working set: one never-seen program, so that lazy imports
        on the compute path are paid before timing."""
        return [self.request(self.templates["chain-l60"],
                             f"c{self.seed}warm", self._rng("warmup"),
                             cold=True)]

    def requests(self) -> Iterator[Request]:
        """Blocks of nine: every template once (the deadline template
        too, a fixed one-in-nine share), in a seeded order."""
        rng = self._rng("stream")
        names = sorted(self.templates)
        for block in itertools.count():
            rng.shuffle(names)
            for slot, name in enumerate(names):
                yield self.request(self.templates[name],
                                   f"c{self.seed}x{block}x{slot}", rng,
                                   cold=True)


class TierMixed(Workload):
    """Zipf reads over 160 travel programs, plus one never-seen write in
    every 32 requests."""

    name = "tier-mixed"
    #: 16 templates: every (year length, resorts) pair once.
    SIZES = tuple((year, resorts) for year in (30, 45, 60, 90)
                  for resorts in (1, 2, 3, 4))
    NAMES_PER_TEMPLATE = 10
    ZIPF_S = 1.0
    WRITE_EVERY = 32
    WRITE_YEAR = 60

    def __init__(self, seed: int):
        super().__init__(seed)
        rng = self._rng("programs")
        for i, (year, resorts) in enumerate(self.SIZES):
            self._add(travel_template(rng, f"travel{i}", year, resorts,
                                      n_asks=12))
        # Popularity rank -> program: interleaved, so that every
        # template owns the same ranks whatever the seed.
        self.working_set = [(f"travel{i}", f"s{seed}w{j}")
                            for j in range(self.NAMES_PER_TEMPLATE)
                            for i in range(len(self.SIZES))]
        weights = [1.0 / (rank + 1) ** self.ZIPF_S
                   for rank in range(len(self.working_set))]
        total = sum(weights)
        self._cumulative = list(itertools.accumulate(
            w / total for w in weights))

    @property
    def block(self) -> int:
        return self.WRITE_EVERY

    def requests(self) -> Iterator[Request]:
        """Reads, with a write in every ``WRITE_EVERY``-th slot.  Writes
        cycle in a seeded order through the templates of one year
        length, ``WRITE_YEAR``: the writes set the p99, and a run holds
        too few of them to give every one of the 16 sizes the same
        share."""
        rng = self._rng("stream")
        written = [f"travel{i}" for i, (year, _) in enumerate(self.SIZES)
                   if year == self.WRITE_YEAR]
        writes = itertools.cycle(rng.sample(written, len(written)))
        # Reads walk the Zipf distribution with a golden-ratio sequence
        # from a seeded start: every stretch of the stream holds each
        # rank at its Zipf share, where independent draws would let the
        # share of cheap and expensive programs vary from run to run.
        point = rng.random()
        for i in itertools.count():
            if i % self.WRITE_EVERY == self.WRITE_EVERY - 1:
                yield self.request(self.templates[next(writes)],
                                   f"n{self.seed}x{i}", rng, cold=True)
                continue
            point = (point + _GOLDEN) % 1.0
            rank = min(bisect.bisect_left(self._cumulative, point),
                       len(self.working_set) - 1)
            name, suffix = self.working_set[rank]
            yield self.request(self.templates[name], suffix, rng)

    def schedule(self, rate: float, seconds: float) -> list:
        """Send times (offsets in seconds): request ``i`` falls at a
        seeded uniform point of slot ``[i, i + 1) / rate``.  At most two
        requests can fall together, so the offered rate holds at every
        time scale and a run's tail does not hinge on the bursts one
        seed happens to draw."""
        rng = self._rng("schedule")
        return [(i + rng.random()) / rate
                for i in range(int(seconds * rate))]


def make(workload: str, seed: int) -> Workload:
    classes = {cls.name: cls for cls in (WarmAsk, ColdSpec, TierMixed)}
    if workload not in classes:
        raise ValueError(f"unknown workload {workload!r}; choose from "
                         f"{', '.join(WORKLOADS)}")
    return classes[workload](seed)


def stream_bytes(workload: Workload, count: int) -> bytes:
    """The first ``count`` requests, serialized (determinism checks)."""
    head = itertools.islice(workload.requests(), count)
    return json.dumps([r.wire() for r in head], sort_keys=True).encode()
