"""Planted-truth corpora for the pipeline benchmark.

Each workload is rendered from a plan: noun phrases (word, adjectives,
quantifier), clauses that link them, and bounding boxes per image. The
plan fixes, before the program runs, the scene graph every caption must
parse to, the richest caption of every image and the edge counts of the
basic and positional graphs. The program only receives the input files
that ``write_inputs`` writes; the truth stays in the benchmark process.
"""

import json
import os
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

NUMERALS = {
    "one": 1, "two": 2, "three": 3, "four": 4, "five": 5, "six": 6,
    "seven": 7, "eight": 8, "nine": 9, "ten": 10, "eleven": 11, "twelve": 12,
}
PHRASES = {
    "a couple of": 2, "a pair of": 2, "a dozen of": 12, "hundreds of": 100,
    "a lot of": "MANY", "lots of": "MANY", "a few": "MANY",
    "a group of": "MANY", "a herd of": "MANY",
}
MANY_VALUE = 3
MAX_DUPLICATION = 10
CAPTIONS_PER_IMAGE = 5  # crowded
GEOMETRIC_RELATIONS = ("left_of", "right_of", "above", "below", "inside", "surrounding")
GRAPH_NAMES = ("basic",) + GEOMETRIC_RELATIONS
IMAGE_W, IMAGE_H = 640.0, 480.0
# fanout and crowded are about per-caption work, not bytes: narrow embeddings
# keep the megabytes each round rewrites (and the disk writeback they cause)
# small. wide_vocab keeps the paper's widths, because its GCN cost is the point.
SMALL_WIDTHS = {"basic_width": 64, "positional_width": 16, "text_width": 64}


@dataclass
class Caption:
    caption_id: str
    image_id: str
    tokens: list  # [surface, lemma, upos, head_token_or_None, deprel]
    objects: list = field(default_factory=list)  # (object_id, word, super_class)
    attributes: list = field(default_factory=list)  # (object_id, adjective)
    relations: list = field(default_factory=list)  # (subject_id, predicate, object_id)

    @property
    def score(self) -> int:
        return len(self.objects) + len(self.relations) + len(self.attributes)

    def surfaces(self) -> list[str]:
        return [t[0] for t in self.tokens]


@dataclass
class Workload:
    name: str
    captions: list  # every caption, in file order
    boxes: dict  # image_id -> [(category, (x, y, w, h))] in annotation order
    supers: dict  # noun lemma -> super-class
    aliases: dict  # caption lemma -> box category
    caption_mode: str
    config: dict  # extra PipelineConfig keys

    def kept(self) -> list:
        """Captions the parse stage must keep, in file order."""
        if self.caption_mode == "all":
            return list(self.captions)
        best: dict[str, Caption] = {}
        for c in self.captions:  # ties go to the lower caption id
            if c.image_id not in best or c.score > best[c.image_id].score:
                best[c.image_id] = c
        keep = {c.caption_id for c in best.values()}
        return [c for c in self.captions if c.caption_id in keep]


class _Builder:
    """Renders clauses into gold dependency tokens and the scene graph they denote."""

    def __init__(self, caption_id, image_id, supers):
        self.cap = Caption(str(caption_id), str(image_id), [])
        self.supers = supers
        self.first_verb = None

    def tok(self, surface, lemma, upos, deprel, head=None):
        t = [surface, lemma, upos, head, deprel]
        self.cap.tokens.append(t)
        return t

    def noun_phrase(self, word, adjs=(), quant=None, det="a", bare_count=None):
        """Emit one noun phrase; returns (role token, noun token, object ids).

        quant is None, ("num", word), ("digit", text) or ("phrase", text).
        Without a quantifier, bare_count set means a bare plural whose copy
        count is inherited from the clause subject (1 when uncounted).
        """
        pre, role = [], None
        if quant is None:
            copies = 1 if bare_count is None else bare_count
            surface = word if bare_count is None else word + "s"
            if bare_count is None:
                pre.append(self.tok(det, det, "DET", "det"))
        else:
            kind, text = quant
            surface = word + "s"
            if kind == "phrase":
                value = PHRASES[text]
                words = text.split()
                if words[-1] == "of":  # "a lot of dogs": lot heads the phrase
                    det_tok = self.tok("a", "a", "DET", "det") if words[0] == "a" else None
                    role = self.tok(words[-2], words[-2], "NOUN", None)
                    if det_tok:
                        det_tok[3] = role
                    pre.append(self.tok("of", "of", "ADP", "case"))
                else:  # "a few dogs": both words modify the noun
                    pre.append(self.tok("a", "a", "DET", "det"))
                    pre.append(self.tok(words[1], words[1], "ADJ", "amod"))
            else:
                value = NUMERALS[text] if kind == "num" else int(text)
                pre.append(self.tok(text, text, "NUM", "nummod"))
            copies = min(MANY_VALUE if value == "MANY" else value, MAX_DUPLICATION)
        pre += [self.tok(a, a, "ADJ", "amod") for a in adjs]
        noun = self.tok(surface, word, "NOUN", "nmod" if role else None, role)
        for t in pre:
            t[3] = noun
        oids = []
        for _ in range(copies):
            oid = len(self.cap.objects)
            self.cap.objects.append((oid, word, self.supers[word]))
            self.cap.attributes += [(oid, a) for a in adjs]
            oids.append(oid)
        return role or noun, noun, oids

    def _clause_start(self):
        # a conjoined clause opens with "and", governed by its own verb
        if self.first_verb is None:
            return None
        return self.tok("and", "and", "CCONJ", "cc")

    def _verb(self, lemma, plural, cc):
        v = self.tok(lemma if plural else lemma + "s", lemma, "VERB", "root", 0)
        if self.first_verb is None:
            self.first_verb = v
        else:
            v[3], v[4] = self.first_verb, "conj"
            cc[3] = v
        return v

    def _subject(self, subj, verb):
        cc = self._clause_start()
        role, _, ids = self.noun_phrase(**subj)
        v = self._verb(verb, len(ids) > 1 or subj.get("quant") is not None, cc)
        role[3], role[4] = v, "nsubj"
        return v, ids

    def svo(self, subj, verb, obj, nmod=None):
        """Subject-verb-object clause; a bare plural object inherits the subject count."""
        v, s_ids = self._subject(subj, verb)
        if "bare_count" in obj:
            obj = dict(obj, bare_count=len(s_ids) if subj.get("quant") else 1)
        role_o, noun_o, o_ids = self.noun_phrase(**obj)
        role_o[3], role_o[4] = v, "obj"
        self.cap.relations += [(s, verb, o) for s in s_ids for o in o_ids]
        if nmod is not None:  # only planned on a single uncounted object
            prep, ground, adjs = nmod
            g_ids = self._pp(prep, ground, adjs, noun_o, "nmod")
            self.cap.relations.append((o_ids[0], prep, g_ids[0]))

    def svp(self, subj, verb, prep, ground, adjs=()):
        """Subject-verb-preposition-ground clause: relation "verb prep"."""
        v, s_ids = self._subject(subj, verb)
        g_ids = self._pp(prep, ground, adjs, v, "obl")
        self.cap.relations += [(s, f"{verb} {prep}", g_ids[0]) for s in s_ids]

    def np(self, head, prep, dep, head_adjs=(), dep_adjs=()):
        """Verbless caption "a brown dog on the grass": relation (head, prep, dep)."""
        role, noun, h_ids = self.noun_phrase(head, head_adjs)
        role[3], role[4] = 0, "root"
        d_ids = self._pp(prep, dep, dep_adjs, noun, "nmod")
        self.cap.relations.append((h_ids[0], prep, d_ids[0]))

    def _pp(self, prep, ground, adjs, head, deprel):
        p = self.tok(prep, prep, "ADP", "case")
        _, noun, ids = self.noun_phrase(ground, adjs, det="the")
        p[3] = noun
        noun[3], noun[4] = head, deprel
        return ids

    def done(self) -> Caption:
        index = {id(t): i for i, t in enumerate(self.cap.tokens, start=1)}
        for t in self.cap.tokens:
            if t[3] is None:
                raise AssertionError(f"caption {self.cap.caption_id}: token {t[0]!r} has no head")
            t[3] = 0 if t[3] == 0 else index[id(t[3])]
        return self.cap


def match_boxes(cap: Caption, boxes, aliases) -> dict:
    """object id -> box: in document order each object takes the largest free
    box of its category (its own word, else its alias); ties go to the
    earlier annotation."""
    pool: dict[str, list] = {}
    for i, (category, box) in enumerate(boxes):
        pool.setdefault(category, []).append((i, box))
    claimed, out = set(), {}
    for oid, word, _ in cap.objects:
        category = word if word in pool else aliases.get(word)
        free = [(i, b) for i, b in pool.get(category, ()) if i not in claimed]
        if free:
            i, box = max(free, key=lambda ib: ib[1][2] * ib[1][3])
            claimed.add(i)
            out[oid] = box
    return out


def classify(s, o) -> str:
    """Position of box s relative to box o (image coordinates, y downward)."""
    def contains(a, b):
        return (b[0] >= a[0] and b[1] >= a[1]
                and b[0] + b[2] <= a[0] + a[2] and b[1] + b[3] <= a[1] + a[3])
    if contains(o, s):
        return "inside"
    if contains(s, o):
        return "surrounding"
    dx = (o[0] + o[2] / 2) - (s[0] + s[2] / 2)
    dy = (o[1] + o[3] / 2) - (s[1] + s[3] / 2)
    if abs(dx) >= abs(dy):
        return "left_of" if dx > 0 else "right_of" if dx < 0 else "inside"
    return "above" if dy > 0 else "below"


def expected_graphs(wl: Workload) -> dict:
    """graph name -> Counter of ((word, kind), (word, kind)) edge counts."""
    graphs = {name: Counter() for name in GRAPH_NAMES}
    for c in wl.kept():
        words = {oid: w for oid, w, _ in c.objects}
        triples = [((words[s], "object"), (p, "relation"), (words[o], "object"))
                   for s, p, o in c.relations]
        for s, p, o in triples:
            graphs["basic"][(s, p)] += 1
            graphs["basic"][(p, o)] += 1
        for oid, a in c.attributes:
            graphs["basic"][((words[oid], "object"), (a, "attribute"))] += 1
        boxes = wl.boxes.get(c.image_id)
        if not boxes:
            continue
        matched = match_boxes(c, boxes, wl.aliases)
        for (s_id, _, o_id), (s, p, o) in zip(c.relations, triples):
            if s_id in matched and o_id in matched:
                g = graphs[classify(matched[s_id], matched[o_id])]
                g[(s, p)] += 1
                g[(p, o)] += 1
    return graphs


def expected_vocabulary(wl: Workload) -> set:
    nodes = set()
    for c in wl.kept():
        nodes |= {(w, "object") for _, w, _ in c.objects}
        nodes |= {(p, "relation") for _, p, _ in c.relations}
        nodes |= {(a, "attribute") for _, a in c.attributes}
    return nodes


# ---------------------------------------------------------------- workloads

def _words(syllables, length, suffix, count):
    out = []
    n = len(syllables)
    for i in range(n ** length):
        parts = [syllables[(i // n ** k) % n] for k in range(length)]
        out.append("".join(parts) + suffix)
    if len(out) < count:
        raise ValueError(f"only {len(out)} words from {syllables}")
    return out[:count]


def _random_box(rng, lo=16.0, hi=200.0):
    w, h = (round(float(v), 1) for v in rng.uniform(lo, hi, size=2))
    x = round(float(rng.uniform(0, IMAGE_W - w)), 1)
    y = round(float(rng.uniform(0, IMAGE_H - h)), 1)
    return (x, y, w, h)


class _Zipf:
    """Zipf(1) draws over a seed-shuffled word list; every word is drawn once
    before any repeats, so the vocabulary does not depend on the seed."""

    def __init__(self, rng, words):
        self.rng = rng
        self.words = [words[i] for i in rng.permutation(len(words))]
        p = 1.0 / np.arange(1, len(words) + 1)
        self.cdf = np.cumsum(p / p.sum())
        self.unseen = list(self.words)

    def __call__(self):
        if self.unseen:
            return self.unseen.pop()
        i = int(np.searchsorted(self.cdf, self.rng.random(), side="right"))
        return self.words[min(i, len(self.words) - 1)]


_FANOUT = (
    ("animal", ["cat", "dog", "bird", "goat", "horse"], ["brown", "small", "furry"],
     ["chase", "watch"], [("sit", "on"), ("stand", "near"), ("graze", "in")],
     ["grass", "field", "rock"]),
    ("vehicle", ["truck", "boat", "train", "car", "van"], ["red", "big", "rusty"],
     ["tow", "carry"], [("park", "near"), ("stop", "at"), ("dock", "at")],
     ["road", "harbor", "station"]),
)
_FANOUT_PREPS = ("on", "near", "by")


def fanout(seed: int, n_captions: int = 2000) -> Workload:
    """Many short captions over a fixed ~35-node vocabulary, one image each."""
    rng = np.random.default_rng([seed, 1])
    supers = {}
    for sup, nouns, _, _, _, grounds in _FANOUT:
        supers.update({w: sup for w in nouns})
        supers.update({w: "ground" for w in grounds})
    captions, boxes = [], {}
    for i in range(n_captions):
        sup, nouns, adjs, verbs, verb_preps, grounds = _FANOUT[i % 2]
        b = _Builder(10000 + i, 500 + i, supers)
        subj, other = (str(w) for w in rng.choice(nouns, size=2, replace=False))
        adj = [str(rng.choice(adjs))] if rng.random() < 0.5 else []
        template = int(rng.integers(3))
        if template == 0:  # "two brown dogs chase a cat"
            quant = ("num", ("two", "three")[int(rng.integers(2))]) if rng.random() < 0.4 else None
            b.svo(dict(word=subj, adjs=adj, quant=quant), str(rng.choice(verbs)),
                  dict(word=other))
        elif template == 1:  # "a truck parks near the road"
            other = str(rng.choice(grounds))
            verb, prep = verb_preps[int(rng.integers(len(verb_preps)))]
            b.svp(dict(word=subj, adjs=adj), verb, prep, other)
        else:  # "a brown dog on the grass"
            other = str(rng.choice(grounds))
            b.np(subj, str(rng.choice(_FANOUT_PREPS)), other, head_adjs=adj)
        cap = b.done()
        captions.append(cap)
        boxes[cap.image_id] = [(w, _random_box(rng)) for w in (subj, other)]
    return Workload("fanout", captions, boxes, supers, {}, "all", SMALL_WIDTHS)


def wide_vocab(seed: int) -> Workload:
    """800 captions over a Zipfian 1,000-noun / 308-relation / 200-attribute
    vocabulary (V = 1,508)."""
    rng = np.random.default_rng([seed, 2])
    nouns = _words(["ba", "ke", "li", "mo", "nu", "pa", "re", "si", "to", "vu"], 3, "", 1000)
    verbs = _words(["da", "fe", "gi", "ho", "ju", "ka", "lo", "mi", "ne", "po",
                    "ru", "se", "ti", "wo", "zu"], 2, "n", 200)
    movers = _words(["ga", "hi", "ko", "lu", "me"], 2, "r", 25)
    preps = ["on", "in", "near", "under", "behind", "beside", "above", "across"]
    pairs = [(movers[i % 25], preps[(i // 25 + i) % 8]) for i in range(100)]
    adjs = _words(["fa", "gu", "he", "ji", "ko", "la", "mu", "ni", "pe", "qi",
                   "ro", "su", "ta", "ve", "wi"], 2, "y", 200)
    supers = {w: f"class{i % 8}" for i, w in enumerate(nouns)}
    pick_noun, pick_verb, pick_adj = _Zipf(rng, nouns), _Zipf(rng, verbs), _Zipf(rng, adjs)
    pick_pair, pick_prep = _Zipf(rng, pairs), _Zipf(rng, preps)

    def adjectives(weights=(0.5, 0.35, 0.15)):
        k = int(rng.choice(len(weights), p=weights))
        out = []
        while len(out) < k:
            a = pick_adj()
            if a not in out:
                out.append(a)
        return out

    captions, boxes = [], {}
    for i in range(800):
        b = _Builder(20000 + i, 700 + i, supers)
        for _ in range(1 if rng.random() < 0.7 else 2):
            quant = ("num", ("two", "three", "four")[int(rng.integers(3))]) \
                if rng.random() < 0.2 else None
            subj = dict(word=pick_noun(), adjs=adjectives(), quant=quant)
            if rng.random() < 0.6:
                if rng.random() < 0.2:
                    b.svo(subj, pick_verb(), dict(word=pick_noun(), adjs=adjectives(),
                                                 bare_count=1))
                else:
                    nmod = (pick_prep(), pick_noun(), adjectives((0.7, 0.3))) \
                        if rng.random() < 0.3 else None
                    b.svo(subj, pick_verb(), dict(word=pick_noun(), adjs=adjectives()),
                          nmod=nmod)
            else:
                verb, prep = pick_pair()
                b.svp(subj, verb, prep, pick_noun(), adjectives((0.7, 0.3)))
        cap = b.done()
        captions.append(cap)
        boxes[cap.image_id] = [(w, _random_box(rng)) for _, w, _ in cap.objects]
    for pick in (pick_noun, pick_verb, pick_adj, pick_pair, pick_prep):
        if pick.unseen:
            raise ValueError("wide_vocab: too few captions to use every word")
    return Workload("wide_vocab", captions, boxes, supers, {}, "all", {"epochs": 10})


def crowded(seed: int, n_images: int = 300) -> Workload:
    """Five long quantified captions per image, parsed with caption_mode richest."""
    rng = np.random.default_rng([seed, 3])
    nouns = _words(["bo", "da", "fi", "gu", "ka", "le", "mi", "no"], 2, "x", 60)
    aliases = {a: nouns[7 * i % 60] for i, a in enumerate(_words(["pu", "ze", "ry", "tu"], 2, "q", 15))}
    verbs = _words(["sa", "te", "vi", "ro", "ha"], 2, "m", 20)
    verb_preps = [(v, p) for v in _words(["ce", "di", "fo"], 2, "l", 5) for p in ("on", "in", "near")]
    preps = ["on", "in", "near", "under", "behind", "beside", "above", "across"]
    adjs = _words(["ja", "ke", "lu", "mo", "ni", "pa"], 2, "ish", 30)
    supers = {w: f"kind{i % 6}" for i, w in enumerate(nouns)}
    supers.update({a: supers[c] for a, c in aliases.items()})
    by_category: dict[str, list] = {}
    for a, c in aliases.items():
        by_category.setdefault(c, []).append(a)
    phrases = sorted(PHRASES)
    numerals = sorted(NUMERALS)

    def adjectives():
        k = int(rng.integers(0, 4))
        return [str(a) for a in rng.choice(adjs, size=k, replace=False)]

    def quant():
        r = rng.random()
        if r < 0.4:
            return None
        if r < 0.64:
            return ("num", numerals[int(rng.integers(len(numerals)))])
        if r < 0.76:
            return ("digit", str(int(rng.integers(11, 21))))
        return ("phrase", phrases[int(rng.integers(len(phrases)))])

    captions, boxes = [], {}
    cid = 30000
    for img in range(n_images):
        image_id = str(900 + img)
        scene = [str(w) for w in rng.choice(nouns, size=10, replace=False)]

        def noun():
            w = scene[int(rng.integers(len(scene)))]
            if w in by_category and rng.random() < 0.3:
                return by_category[w][int(rng.integers(len(by_category[w])))]
            return w

        image_caps = []
        for _ in range(CAPTIONS_PER_IMAGE):
            b = _Builder(cid, image_id, supers)
            cid += 1
            for _ in range(int(rng.integers(3, 6))):
                subj = dict(word=noun(), adjs=adjectives(), quant=quant())
                if rng.random() < 0.7:
                    r = rng.random()
                    if r < 0.4:
                        nmod = (preps[int(rng.integers(8))], noun(), adjectives()) \
                            if rng.random() < 0.4 else None
                        b.svo(subj, verbs[int(rng.integers(20))],
                              dict(word=noun(), adjs=adjectives()), nmod=nmod)
                    elif r < 0.8:
                        b.svo(subj, verbs[int(rng.integers(20))],
                              dict(word=noun(), adjs=adjectives(), bare_count=1))
                    else:
                        q = ("num", numerals[int(rng.integers(len(numerals)))])
                        b.svo(subj, verbs[int(rng.integers(20))],
                              dict(word=noun(), adjs=adjectives(), quant=q))
                else:
                    verb, prep = verb_preps[int(rng.integers(len(verb_preps)))]
                    b.svp(subj, verb, prep, noun(), adjectives())
            image_caps.append(b.done())
        captions += image_caps
        need = Counter()
        for c in image_caps:
            per = Counter(aliases.get(w, w) for _, w, _ in c.objects)
            for cat, k in per.items():
                need[cat] = max(need[cat], k)
        img_boxes = []
        for cat in scene:  # some objects stay without a box
            img_boxes += [(cat, _random_box(rng)) for _ in range(int(rng.integers(0, need[cat] + 1)))]
        for cat in rng.choice([w for w in nouns if w not in scene], size=5, replace=False):
            img_boxes.append((str(cat), _random_box(rng)))
        order = rng.permutation(len(img_boxes))
        boxes[image_id] = [img_boxes[i] for i in order]
    return Workload("crowded", captions, boxes, supers, aliases, "richest", SMALL_WIDTHS)


WORKLOADS = {"fanout": fanout, "wide_vocab": wide_vocab, "crowded": crowded}


# ---------------------------------------------------------------- input files

def write_inputs(wl: Workload, dirpath: str, seed: int) -> str:
    """Write the files the program reads; returns the config file path."""
    os.makedirs(dirpath, exist_ok=True)
    path = {k: os.path.abspath(os.path.join(dirpath, f)) for k, f in (
        ("conllu", "captions.conllu"), ("captions", "captions.json"),
        ("instances", "instances.json"), ("quantifier_lexicon", "quantifiers.tsv"),
        ("superclass_lexicon", "superclasses.tsv"), ("alias_table", "aliases.tsv"))}
    chunks = []
    for c in wl.captions:
        lines = [f"# caption_id = {c.caption_id}", f"# image_id = {c.image_id}"]
        lines += [f"{i}\t{s}\t{lemma}\t{upos}\t_\t_\t{head}\t{rel}\t_\t_"
                  for i, (s, lemma, upos, head, rel) in enumerate(c.tokens, start=1)]
        chunks.append("\n".join(lines))
    with open(path["conllu"], "w", encoding="utf-8") as f:
        f.write("\n\n".join(chunks) + "\n")
    with open(path["captions"], "w", encoding="utf-8") as f:
        json.dump({"annotations": [
            {"image_id": int(c.image_id), "id": int(c.caption_id), "caption": " ".join(c.surfaces())}
            for c in wl.captions]}, f)
    categories = sorted({cat for bs in wl.boxes.values() for cat, _ in bs})
    cat_id = {cat: i + 1 for i, cat in enumerate(categories)}
    with open(path["instances"], "w", encoding="utf-8") as f:
        json.dump({
            "categories": [{"id": cat_id[c], "name": c, "supercategory": wl.supers[c]}
                           for c in categories],
            "annotations": [{"image_id": int(img), "category_id": cat_id[cat], "bbox": list(box)}
                            for img, bs in wl.boxes.items() for cat, box in bs],
        }, f)
    with open(path["quantifier_lexicon"], "w", encoding="utf-8") as f:
        f.writelines(f"{w}\t{v}\n" for w, v in {**NUMERALS, **PHRASES}.items())
    with open(path["superclass_lexicon"], "w", encoding="utf-8") as f:
        f.writelines(f"{w}\t{s}\n" for w, s in sorted(wl.supers.items()))
    with open(path["alias_table"], "w", encoding="utf-8") as f:
        f.writelines(f"{a}\t{c}\n" for a, c in sorted(wl.aliases.items()))
    settings = {**path, "caption_mode": wl.caption_mode, "many_value": MANY_VALUE,
                "max_duplication": MAX_DUPLICATION, "seed": seed, **wl.config}
    config = os.path.join(dirpath, "config.txt")
    with open(config, "w", encoding="utf-8") as f:
        f.writelines(f"{k} = {v}\n" for k, v in settings.items())
    return config
