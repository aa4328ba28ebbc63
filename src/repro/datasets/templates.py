"""Function template families for the synthetic CodeSearchNet-PE corpus.

Each :class:`FunctionFamily` bundles a reference natural-language
description, a realistic search query, and several *structural variants*
of the same task (loop vs comprehension vs builtin, different control
flow).  Rendering a variant picks concrete identifier names from synonym
pools with a seeded RNG, so one family yields many distinct-but-related
functions:

* members of one family are each other's ground-truth relevant set for
  the retrieval evaluations (Figs 11–13);
* identifier renames inside a variant are near-clones (what ReACC is good
  at); different variants of a family share structure but not surface
  (what Aroma is good at).

All rendering is deterministic given ``(family, variant, seed)``.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass

__all__ = ["FunctionFamily", "FAMILIES", "render_variant", "NAME_POOLS"]


@dataclass(frozen=True)
class FunctionFamily:
    """One semantic group of functions."""

    key: str
    description: str
    query: str
    fn_names: tuple[str, ...]
    variants: tuple[str, ...]
    slots: tuple[str, ...] = ()


#: Synonym pools for local-identifier slots used in the templates.
NAME_POOLS: dict[str, tuple[str, ...]] = {
    "val": ("value", "item", "elem", "entry", "cur", "v"),
    "acc": ("total", "acc", "result", "agg", "summed"),
    "out": ("out", "results", "collected", "output", "buf"),
    "seq": ("values", "items", "data", "records", "seq", "numbers"),
    "idx": ("i", "idx", "pos", "k"),
    "n": ("n", "count", "size", "length"),
    "key": ("key", "name", "field", "label"),
    "tmp": ("tmp", "scratch", "hold", "aux"),
    "lo": ("lo", "low", "left", "start"),
    "hi": ("hi", "high", "right", "end"),
    "s": ("text", "s", "string", "line"),
    "w": ("word", "token", "part", "chunk"),
    "d": ("mapping", "table", "lookup", "d"),
    "thr": ("threshold", "limit", "cutoff", "bound"),
}


FAMILIES: tuple[FunctionFamily, ...] = (
    FunctionFamily(
        key="is_prime",
        description="Check whether a given number is prime and return True if it is.",
        query="check if a number is prime",
        fn_names=("is_prime", "check_prime", "prime_test"),
        slots=("val", "idx"),
        variants=(
            "def {fn}({val}):\n"
            "    if {val} < 2:\n"
            "        return False\n"
            "    for {idx} in range(2, int({val} ** 0.5) + 1):\n"
            "        if {val} % {idx} == 0:\n"
            "            return False\n"
            "    return True\n",
            "def {fn}({val}):\n"
            "    return {val} > 1 and all({val} % {idx} != 0 for {idx} in range(2, {val}))\n",
            "def {fn}({val}):\n"
            "    if {val} in (2, 3):\n"
            "        return True\n"
            "    if {val} < 2 or {val} % 2 == 0:\n"
            "        return False\n"
            "    {idx} = 3\n"
            "    while {idx} * {idx} <= {val}:\n"
            "        if {val} % {idx} == 0:\n"
            "            return False\n"
            "        {idx} += 2\n"
            "    return True\n",
        ),
    ),
    FunctionFamily(
        key="moving_average",
        description="Compute the moving average of a sequence over a sliding window.",
        query="compute moving average over a sliding window",
        fn_names=("moving_average", "running_mean", "rolling_avg"),
        slots=("seq", "n", "acc", "out", "idx"),
        variants=(
            "def {fn}({seq}, {n}):\n"
            "    {out} = []\n"
            "    {acc} = 0.0\n"
            "    for {idx}, {val} in enumerate({seq}):\n"
            "        {acc} += {val}\n"
            "        if {idx} >= {n}:\n"
            "            {acc} -= {seq}[{idx} - {n}]\n"
            "        {out}.append({acc} / min({idx} + 1, {n}))\n"
            "    return {out}\n".replace("{val}", "sample"),
            "def {fn}({seq}, {n}):\n"
            "    return [sum({seq}[max(0, {idx} - {n} + 1):{idx} + 1]) / len({seq}[max(0, {idx} - {n} + 1):{idx} + 1])\n"
            "            for {idx} in range(len({seq}))]\n",
            "def {fn}({seq}, {n}):\n"
            "    {out} = []\n"
            "    for {idx} in range(len({seq}) - {n} + 1):\n"
            "        window = {seq}[{idx}:{idx} + {n}]\n"
            "        {out}.append(sum(window) / {n})\n"
            "    return {out}\n",
        ),
    ),
    FunctionFamily(
        key="word_count",
        description="Count the occurrences of each word in a text string.",
        query="count word frequencies in text",
        fn_names=("word_count", "count_words", "word_frequencies"),
        slots=("s", "w", "d"),
        variants=(
            "def {fn}({s}):\n"
            "    {d} = {{}}\n"
            "    for {w} in {s}.split():\n"
            "        {d}[{w}] = {d}.get({w}, 0) + 1\n"
            "    return {d}\n",
            "def {fn}({s}):\n"
            "    from collections import Counter\n"
            "    return dict(Counter({s}.split()))\n",
            "def {fn}({s}):\n"
            "    {d} = {{}}\n"
            "    for {w} in {s}.lower().split():\n"
            "        if {w} in {d}:\n"
            "            {d}[{w}] += 1\n"
            "        else:\n"
            "            {d}[{w}] = 1\n"
            "    return {d}\n",
        ),
    ),
    FunctionFamily(
        key="reverse_string",
        description="Reverse the characters of a string.",
        query="reverse a string",
        fn_names=("reverse_string", "string_reverse", "reversed_text"),
        slots=("s", "out", "val"),
        variants=(
            "def {fn}({s}):\n    return {s}[::-1]\n",
            "def {fn}({s}):\n"
            "    {out} = ''\n"
            "    for {val} in {s}:\n"
            "        {out} = {val} + {out}\n"
            "    return {out}\n",
            "def {fn}({s}):\n    return ''.join(reversed({s}))\n",
        ),
    ),
    FunctionFamily(
        key="flatten",
        description="Flatten a nested list of lists into a single flat list.",
        query="flatten nested lists",
        fn_names=("flatten", "flatten_list", "flat"),
        slots=("seq", "out", "val", "tmp"),
        variants=(
            "def {fn}({seq}):\n"
            "    {out} = []\n"
            "    for {tmp} in {seq}:\n"
            "        for {val} in {tmp}:\n"
            "            {out}.append({val})\n"
            "    return {out}\n",
            "def {fn}({seq}):\n"
            "    return [{val} for {tmp} in {seq} for {val} in {tmp}]\n",
            "def {fn}({seq}):\n"
            "    import itertools\n"
            "    return list(itertools.chain.from_iterable({seq}))\n",
        ),
    ),
    FunctionFamily(
        key="merge_dicts",
        description="Merge two dictionaries, with values from the second overriding the first.",
        query="merge two dictionaries",
        fn_names=("merge_dicts", "combine_maps", "dict_union"),
        slots=("d", "out", "key"),
        variants=(
            "def {fn}(first, second):\n"
            "    {out} = dict(first)\n"
            "    {out}.update(second)\n"
            "    return {out}\n",
            "def {fn}(first, second):\n    return {{**first, **second}}\n",
            "def {fn}(first, second):\n"
            "    {out} = {{}}\n"
            "    for {d} in (first, second):\n"
            "        for {key} in {d}:\n"
            "            {out}[{key}] = {d}[{key}]\n"
            "    return {out}\n",
        ),
    ),
    FunctionFamily(
        key="fibonacci",
        description="Compute the n-th Fibonacci number.",
        query="compute fibonacci numbers",
        fn_names=("fibonacci", "fib", "nth_fibonacci"),
        slots=("n", "lo", "hi", "idx"),
        variants=(
            "def {fn}({n}):\n"
            "    {lo}, {hi} = 0, 1\n"
            "    for {idx} in range({n}):\n"
            "        {lo}, {hi} = {hi}, {lo} + {hi}\n"
            "    return {lo}\n",
            "def {fn}({n}):\n"
            "    if {n} < 2:\n"
            "        return {n}\n"
            "    return {fn}({n} - 1) + {fn}({n} - 2)\n",
            "def {fn}({n}):\n"
            "    cache = [0, 1]\n"
            "    while len(cache) <= {n}:\n"
            "        cache.append(cache[-1] + cache[-2])\n"
            "    return cache[{n}]\n",
        ),
    ),
    FunctionFamily(
        key="factorial",
        description="Compute the factorial of a non-negative integer.",
        query="calculate factorial of a number",
        fn_names=("factorial", "fact", "compute_factorial"),
        slots=("n", "acc", "idx"),
        variants=(
            "def {fn}({n}):\n"
            "    {acc} = 1\n"
            "    for {idx} in range(2, {n} + 1):\n"
            "        {acc} *= {idx}\n"
            "    return {acc}\n",
            "def {fn}({n}):\n"
            "    if {n} <= 1:\n"
            "        return 1\n"
            "    return {n} * {fn}({n} - 1)\n",
            "def {fn}({n}):\n"
            "    import math\n"
            "    return math.factorial({n})\n",
        ),
    ),
    FunctionFamily(
        key="gcd",
        description="Compute the greatest common divisor of two integers.",
        query="greatest common divisor of two numbers",
        fn_names=("gcd", "greatest_common_divisor", "compute_gcd"),
        slots=("lo", "hi"),
        variants=(
            "def {fn}({lo}, {hi}):\n"
            "    while {hi}:\n"
            "        {lo}, {hi} = {hi}, {lo} % {hi}\n"
            "    return {lo}\n",
            "def {fn}({lo}, {hi}):\n"
            "    if {hi} == 0:\n"
            "        return {lo}\n"
            "    return {fn}({hi}, {lo} % {hi})\n",
            "def {fn}({lo}, {hi}):\n"
            "    import math\n"
            "    return math.gcd({lo}, {hi})\n",
        ),
    ),
    FunctionFamily(
        key="median",
        description="Compute the median value of a list of numbers.",
        query="find the median of a list",
        fn_names=("median", "middle_value", "compute_median"),
        slots=("seq", "tmp", "n"),
        variants=(
            "def {fn}({seq}):\n"
            "    {tmp} = sorted({seq})\n"
            "    {n} = len({tmp})\n"
            "    if {n} % 2 == 1:\n"
            "        return {tmp}[{n} // 2]\n"
            "    return ({tmp}[{n} // 2 - 1] + {tmp}[{n} // 2]) / 2\n",
            "def {fn}({seq}):\n"
            "    import statistics\n"
            "    return statistics.median({seq})\n",
            "def {fn}({seq}):\n"
            "    {tmp} = sorted({seq})\n"
            "    mid = len({tmp}) // 2\n"
            "    return {tmp}[mid] if len({tmp}) % 2 else sum({tmp}[mid - 1:mid + 1]) / 2\n",
        ),
    ),
    FunctionFamily(
        key="variance",
        description="Compute the variance of a sequence of numbers.",
        query="compute variance of numbers",
        fn_names=("variance", "var", "compute_variance"),
        slots=("seq", "acc", "val", "n"),
        variants=(
            "def {fn}({seq}):\n"
            "    {n} = len({seq})\n"
            "    mean = sum({seq}) / {n}\n"
            "    {acc} = 0.0\n"
            "    for {val} in {seq}:\n"
            "        {acc} += ({val} - mean) ** 2\n"
            "    return {acc} / {n}\n",
            "def {fn}({seq}):\n"
            "    mean = sum({seq}) / len({seq})\n"
            "    return sum(({val} - mean) ** 2 for {val} in {seq}) / len({seq})\n",
            "def {fn}({seq}):\n"
            "    import statistics\n"
            "    return statistics.pvariance({seq})\n",
        ),
    ),
    FunctionFamily(
        key="minmax_normalize",
        description="Normalize values in a list to the range zero to one using min-max scaling.",
        query="normalize values between 0 and 1",
        fn_names=("normalize", "minmax_scale", "rescale"),
        slots=("seq", "lo", "hi", "val"),
        variants=(
            "def {fn}({seq}):\n"
            "    {lo} = min({seq})\n"
            "    {hi} = max({seq})\n"
            "    span = {hi} - {lo} or 1\n"
            "    return [({val} - {lo}) / span for {val} in {seq}]\n",
            "def {fn}({seq}):\n"
            "    {lo}, {hi} = min({seq}), max({seq})\n"
            "    scaled = []\n"
            "    for {val} in {seq}:\n"
            "        scaled.append(({val} - {lo}) / (({hi} - {lo}) or 1))\n"
            "    return scaled\n",
        ),
    ),
    FunctionFamily(
        key="zscore_anomaly",
        description="Detect anomalies in sensor readings using the z-score threshold method.",
        query="a pe that is able to detect anomalies",
        fn_names=("detect_anomalies", "find_outliers", "anomaly_scan"),
        slots=("seq", "thr", "out", "val", "acc"),
        variants=(
            "def {fn}({seq}, {thr}=3.0):\n"
            "    mean = sum({seq}) / len({seq})\n"
            "    std = (sum(({val} - mean) ** 2 for {val} in {seq}) / len({seq})) ** 0.5\n"
            "    {out} = []\n"
            "    for {val} in {seq}:\n"
            "        if std and abs({val} - mean) / std > {thr}:\n"
            "            {out}.append({val})\n"
            "    return {out}\n",
            "def {fn}({seq}, {thr}=3.0):\n"
            "    mean = sum({seq}) / len({seq})\n"
            "    std = (sum(({val} - mean) ** 2 for {val} in {seq}) / len({seq})) ** 0.5 or 1.0\n"
            "    return [{val} for {val} in {seq} if abs({val} - mean) / std > {thr}]\n",
        ),
    ),
    FunctionFamily(
        key="c2f",
        description="Convert a temperature from Celsius to Fahrenheit degrees.",
        query="convert celsius to fahrenheit",
        fn_names=("celsius_to_fahrenheit", "c2f", "to_fahrenheit"),
        slots=("val",),
        variants=(
            "def {fn}({val}):\n    return {val} * 9 / 5 + 32\n",
            "def {fn}({val}):\n"
            "    degrees = {val} * 1.8\n"
            "    return degrees + 32\n",
        ),
    ),
    FunctionFamily(
        key="dedupe",
        description="Remove duplicate items from a list while preserving their order.",
        query="remove duplicates from a list keeping order",
        fn_names=("dedupe", "unique", "remove_duplicates"),
        slots=("seq", "out", "val", "tmp"),
        variants=(
            "def {fn}({seq}):\n"
            "    seen = set()\n"
            "    {out} = []\n"
            "    for {val} in {seq}:\n"
            "        if {val} not in seen:\n"
            "            seen.add({val})\n"
            "            {out}.append({val})\n"
            "    return {out}\n",
            "def {fn}({seq}):\n    return list(dict.fromkeys({seq}))\n",
            "def {fn}({seq}):\n"
            "    {out} = []\n"
            "    for {val} in {seq}:\n"
            "        if {val} not in {out}:\n"
            "            {out}.append({val})\n"
            "    return {out}\n",
        ),
    ),
    FunctionFamily(
        key="chunk",
        description="Split a list into consecutive chunks of a fixed size.",
        query="split list into chunks of size n",
        fn_names=("chunk", "chunks", "partition_list"),
        slots=("seq", "n", "idx"),
        variants=(
            "def {fn}({seq}, {n}):\n"
            "    return [{seq}[{idx}:{idx} + {n}] for {idx} in range(0, len({seq}), {n})]\n",
            "def {fn}({seq}, {n}):\n"
            "    pieces = []\n"
            "    {idx} = 0\n"
            "    while {idx} < len({seq}):\n"
            "        pieces.append({seq}[{idx}:{idx} + {n}])\n"
            "        {idx} += {n}\n"
            "    return pieces\n",
        ),
    ),
    FunctionFamily(
        key="parse_csv_line",
        description="Parse a comma separated line into a list of trimmed fields.",
        query="parse a csv line into fields",
        fn_names=("parse_csv_line", "split_csv", "csv_fields"),
        slots=("s", "w", "out"),
        variants=(
            "def {fn}({s}):\n"
            "    return [{w}.strip() for {w} in {s}.split(',')]\n",
            "def {fn}({s}):\n"
            "    {out} = []\n"
            "    for {w} in {s}.split(','):\n"
            "        {out}.append({w}.strip())\n"
            "    return {out}\n",
            "def {fn}({s}):\n"
            "    import csv\n"
            "    return next(csv.reader([{s}]))\n",
        ),
    ),
    FunctionFamily(
        key="filter_keys",
        description="Return a copy of a dictionary containing only the requested keys.",
        query="filter dictionary by keys",
        fn_names=("filter_keys", "pick", "select_keys"),
        slots=("d", "key", "out"),
        variants=(
            "def {fn}({d}, wanted):\n"
            "    return {{{key}: {d}[{key}] for {key} in wanted if {key} in {d}}}\n",
            "def {fn}({d}, wanted):\n"
            "    {out} = {{}}\n"
            "    for {key} in wanted:\n"
            "        if {key} in {d}:\n"
            "            {out}[{key}] = {d}[{key}]\n"
            "    return {out}\n",
        ),
    ),
    FunctionFamily(
        key="count_vowels",
        description="Count how many vowels appear in a string.",
        query="count vowels in a string",
        fn_names=("count_vowels", "vowel_count", "num_vowels"),
        slots=("s", "acc", "val"),
        variants=(
            "def {fn}({s}):\n"
            "    {acc} = 0\n"
            "    for {val} in {s}.lower():\n"
            "        if {val} in 'aeiou':\n"
            "            {acc} += 1\n"
            "    return {acc}\n",
            "def {fn}({s}):\n"
            "    return sum(1 for {val} in {s}.lower() if {val} in 'aeiou')\n",
        ),
    ),
    FunctionFamily(
        key="palindrome",
        description="Check whether a string reads the same forwards and backwards.",
        query="check if string is a palindrome",
        fn_names=("is_palindrome", "palindrome_check", "reads_same"),
        slots=("s", "lo", "hi"),
        variants=(
            "def {fn}({s}):\n"
            "    cleaned = {s}.lower()\n"
            "    return cleaned == cleaned[::-1]\n",
            "def {fn}({s}):\n"
            "    {lo}, {hi} = 0, len({s}) - 1\n"
            "    while {lo} < {hi}:\n"
            "        if {s}[{lo}] != {s}[{hi}]:\n"
            "            return False\n"
            "        {lo} += 1\n"
            "        {hi} -= 1\n"
            "    return True\n",
        ),
    ),
    FunctionFamily(
        key="caesar",
        description="Encrypt text with a Caesar cipher shifting letters by a fixed amount.",
        query="caesar cipher encrypt text",
        fn_names=("caesar_encrypt", "shift_cipher", "rotate_text"),
        slots=("s", "n", "out", "val"),
        variants=(
            "def {fn}({s}, {n}):\n"
            "    {out} = []\n"
            "    for {val} in {s}:\n"
            "        if {val}.isalpha():\n"
            "            base = ord('a') if {val}.islower() else ord('A')\n"
            "            {out}.append(chr((ord({val}) - base + {n}) % 26 + base))\n"
            "        else:\n"
            "            {out}.append({val})\n"
            "    return ''.join({out})\n",
            "def {fn}({s}, {n}):\n"
            "    return ''.join(\n"
            "        chr((ord({val}) - 97 + {n}) % 26 + 97) if {val}.isalpha() else {val}\n"
            "        for {val} in {s}.lower()\n"
            "    )\n",
        ),
    ),
    FunctionFamily(
        key="hex_encode",
        description="Encode a byte string into its hexadecimal representation.",
        query="encode bytes as hex string",
        fn_names=("hex_encode", "to_hex", "bytes_to_hex"),
        slots=("s", "val"),
        variants=(
            "def {fn}({s}):\n    return {s}.hex()\n",
            "def {fn}({s}):\n"
            "    return ''.join(format({val}, '02x') for {val} in {s})\n",
        ),
    ),
    FunctionFamily(
        key="binary_search",
        description="Find the index of a target value in a sorted list using binary search.",
        query="binary search in sorted list",
        fn_names=("binary_search", "bsearch", "find_sorted"),
        slots=("seq", "lo", "hi", "val"),
        variants=(
            "def {fn}({seq}, target):\n"
            "    {lo}, {hi} = 0, len({seq}) - 1\n"
            "    while {lo} <= {hi}:\n"
            "        mid = ({lo} + {hi}) // 2\n"
            "        {val} = {seq}[mid]\n"
            "        if {val} == target:\n"
            "            return mid\n"
            "        if {val} < target:\n"
            "            {lo} = mid + 1\n"
            "        else:\n"
            "            {hi} = mid - 1\n"
            "    return -1\n",
            "def {fn}({seq}, target):\n"
            "    import bisect\n"
            "    {lo} = bisect.bisect_left({seq}, target)\n"
            "    if {lo} < len({seq}) and {seq}[{lo}] == target:\n"
            "        return {lo}\n"
            "    return -1\n",
        ),
    ),
    FunctionFamily(
        key="insertion_sort",
        description="Sort a list of numbers in ascending order using insertion sort.",
        query="sort a list with insertion sort",
        fn_names=("insertion_sort", "insert_sort", "sort_by_insertion"),
        slots=("seq", "idx", "val", "tmp"),
        variants=(
            "def {fn}({seq}):\n"
            "    for {idx} in range(1, len({seq})):\n"
            "        {val} = {seq}[{idx}]\n"
            "        {tmp} = {idx} - 1\n"
            "        while {tmp} >= 0 and {seq}[{tmp}] > {val}:\n"
            "            {seq}[{tmp} + 1] = {seq}[{tmp}]\n"
            "            {tmp} -= 1\n"
            "        {seq}[{tmp} + 1] = {val}\n"
            "    return {seq}\n",
            "def {fn}({seq}):\n"
            "    sorted_part = []\n"
            "    for {val} in {seq}:\n"
            "        {idx} = 0\n"
            "        while {idx} < len(sorted_part) and sorted_part[{idx}] < {val}:\n"
            "            {idx} += 1\n"
            "        sorted_part.insert({idx}, {val})\n"
            "    return sorted_part\n",
        ),
    ),
    FunctionFamily(
        key="transpose",
        description="Transpose a two dimensional matrix represented as a list of rows.",
        query="transpose a matrix",
        fn_names=("transpose", "matrix_transpose", "flip_axes"),
        slots=("seq", "idx", "out"),
        variants=(
            "def {fn}({seq}):\n    return [list(row) for row in zip(*{seq})]\n",
            "def {fn}({seq}):\n"
            "    {out} = []\n"
            "    for {idx} in range(len({seq}[0])):\n"
            "        {out}.append([row[{idx}] for row in {seq}])\n"
            "    return {out}\n",
        ),
    ),
    FunctionFamily(
        key="dot_product",
        description="Compute the dot product of two equal-length numeric vectors.",
        query="dot product of two vectors",
        fn_names=("dot_product", "dot", "inner_product"),
        slots=("acc", "val", "idx"),
        variants=(
            "def {fn}(xs, ys):\n"
            "    {acc} = 0\n"
            "    for {idx} in range(len(xs)):\n"
            "        {acc} += xs[{idx}] * ys[{idx}]\n"
            "    return {acc}\n",
            "def {fn}(xs, ys):\n"
            "    return sum(a * b for a, b in zip(xs, ys))\n",
        ),
    ),
    FunctionFamily(
        key="levenshtein",
        description="Compute the Levenshtein edit distance between two strings.",
        query="edit distance between two strings",
        fn_names=("levenshtein", "edit_distance", "string_distance"),
        slots=("s", "idx", "tmp"),
        variants=(
            "def {fn}(first, second):\n"
            "    if not first:\n"
            "        return len(second)\n"
            "    if not second:\n"
            "        return len(first)\n"
            "    prev = list(range(len(second) + 1))\n"
            "    for {idx}, a in enumerate(first, 1):\n"
            "        row = [{idx}]\n"
            "        for j, b in enumerate(second, 1):\n"
            "            row.append(min(prev[j] + 1, row[-1] + 1, prev[j - 1] + (a != b)))\n"
            "        prev = row\n"
            "    return prev[-1]\n",
            "def {fn}(first, second):\n"
            "    if first == second:\n"
            "        return 0\n"
            "    if not first or not second:\n"
            "        return max(len(first), len(second))\n"
            "    if first[0] == second[0]:\n"
            "        return {fn}(first[1:], second[1:])\n"
            "    return 1 + min(\n"
            "        {fn}(first[1:], second),\n"
            "        {fn}(first, second[1:]),\n"
            "        {fn}(first[1:], second[1:]),\n"
            "    )\n",
        ),
    ),
    FunctionFamily(
        key="parse_query",
        description="Parse a URL query string into a dictionary of parameters.",
        query="parse url query string parameters",
        fn_names=("parse_query", "query_params", "parse_querystring"),
        slots=("s", "d", "w"),
        variants=(
            "def {fn}({s}):\n"
            "    {d} = {{}}\n"
            "    for {w} in {s}.split('&'):\n"
            "        if '=' in {w}:\n"
            "            name, _, val = {w}.partition('=')\n"
            "            {d}[name] = val\n"
            "    return {d}\n",
            "def {fn}({s}):\n"
            "    from urllib.parse import parse_qs\n"
            "    return {{k: v[0] for k, v in parse_qs({s}).items()}}\n",
        ),
    ),
    FunctionFamily(
        key="valid_email",
        description="Validate that a string looks like a well-formed email address.",
        query="validate an email address",
        fn_names=("valid_email", "is_email", "check_email"),
        slots=("s",),
        variants=(
            "def {fn}({s}):\n"
            "    import re\n"
            "    return bool(re.match(r'^[\\w.+-]+@[\\w-]+\\.[\\w.]+$', {s}))\n",
            "def {fn}({s}):\n"
            "    if '@' not in {s}:\n"
            "        return False\n"
            "    local, _, domain = {s}.partition('@')\n"
            "    return bool(local) and '.' in domain\n",
        ),
    ),
    FunctionFamily(
        key="format_timestamp",
        description="Format a unix timestamp as a human readable date string.",
        query="format unix timestamp as date string",
        fn_names=("format_timestamp", "ts_to_string", "human_time"),
        slots=("val",),
        variants=(
            "def {fn}({val}):\n"
            "    import datetime\n"
            "    return datetime.datetime.utcfromtimestamp({val}).strftime('%Y-%m-%d %H:%M:%S')\n",
            "def {fn}({val}):\n"
            "    import time\n"
            "    return time.strftime('%Y-%m-%d %H:%M:%S', time.gmtime({val}))\n",
        ),
    ),
    FunctionFamily(
        key="window_max",
        description="Compute the maximum of each sliding window over a sequence.",
        query="sliding window maximum",
        fn_names=("window_max", "sliding_max", "rolling_maximum"),
        slots=("seq", "n", "out", "idx"),
        variants=(
            "def {fn}({seq}, {n}):\n"
            "    {out} = []\n"
            "    for {idx} in range(len({seq}) - {n} + 1):\n"
            "        {out}.append(max({seq}[{idx}:{idx} + {n}]))\n"
            "    return {out}\n",
            "def {fn}({seq}, {n}):\n"
            "    return [max({seq}[{idx}:{idx} + {n}]) for {idx} in range(len({seq}) - {n} + 1)]\n",
        ),
    ),
    FunctionFamily(
        key="top_k",
        description="Return the k most frequent items of a sequence.",
        query="find the most frequent elements",
        fn_names=("top_k", "most_frequent", "top_items"),
        slots=("seq", "n", "d", "val"),
        variants=(
            "def {fn}({seq}, {n}):\n"
            "    from collections import Counter\n"
            "    return [item for item, _ in Counter({seq}).most_common({n})]\n",
            "def {fn}({seq}, {n}):\n"
            "    {d} = {{}}\n"
            "    for {val} in {seq}:\n"
            "        {d}[{val}] = {d}.get({val}, 0) + 1\n"
            "    ranked = sorted({d}, key={d}.get, reverse=True)\n"
            "    return ranked[:{n}]\n",
        ),
    ),
    FunctionFamily(
        key="group_by",
        description="Group a sequence of records by the value of a key function.",
        query="group records by key",
        fn_names=("group_by", "bucket_by", "group_records"),
        slots=("seq", "d", "val", "key"),
        variants=(
            "def {fn}({seq}, keyfn):\n"
            "    {d} = {{}}\n"
            "    for {val} in {seq}:\n"
            "        {d}.setdefault(keyfn({val}), []).append({val})\n"
            "    return {d}\n",
            "def {fn}({seq}, keyfn):\n"
            "    {d} = {{}}\n"
            "    for {val} in {seq}:\n"
            "        {key} = keyfn({val})\n"
            "        if {key} not in {d}:\n"
            "            {d}[{key}] = []\n"
            "        {d}[{key}].append({val})\n"
            "    return {d}\n",
        ),
    ),
    FunctionFamily(
        key="clamp",
        description="Clamp every number in a list between a lower and upper bound.",
        query="clamp values to a range",
        fn_names=("clamp_all", "clip_values", "bound_values"),
        slots=("seq", "lo", "hi", "val"),
        variants=(
            "def {fn}({seq}, {lo}, {hi}):\n"
            "    return [min(max({val}, {lo}), {hi}) for {val} in {seq}]\n",
            "def {fn}({seq}, {lo}, {hi}):\n"
            "    bounded = []\n"
            "    for {val} in {seq}:\n"
            "        if {val} < {lo}:\n"
            "            bounded.append({lo})\n"
            "        elif {val} > {hi}:\n"
            "            bounded.append({hi})\n"
            "        else:\n"
            "            bounded.append({val})\n"
            "    return bounded\n",
        ),
    ),
    FunctionFamily(
        key="histogram",
        description="Build a histogram of values bucketed into equal-width bins.",
        query="build histogram with fixed bins",
        fn_names=("histogram", "bin_values", "make_histogram"),
        slots=("seq", "n", "d", "val", "lo", "hi"),
        variants=(
            "def {fn}({seq}, {n}):\n"
            "    {lo}, {hi} = min({seq}), max({seq})\n"
            "    width = ({hi} - {lo}) / {n} or 1\n"
            "    {d} = [0] * {n}\n"
            "    for {val} in {seq}:\n"
            "        slot = min(int(({val} - {lo}) / width), {n} - 1)\n"
            "        {d}[slot] += 1\n"
            "    return {d}\n",
            "def {fn}({seq}, {n}):\n"
            "    {lo}, {hi} = min({seq}), max({seq})\n"
            "    width = (({hi} - {lo}) or 1) / {n}\n"
            "    return [sum(1 for {val} in {seq}\n"
            "                if {lo} + slot * width <= {val} < {lo} + (slot + 1) * width or\n"
            "                (slot == {n} - 1 and {val} == {hi}))\n"
            "            for slot in range({n})]\n",
        ),
    ),
    FunctionFamily(
        key="running_total",
        description="Compute the cumulative running total of a numeric sequence.",
        query="cumulative sum of a list",
        fn_names=("running_total", "cumsum", "prefix_sums"),
        slots=("seq", "acc", "out", "val"),
        variants=(
            "def {fn}({seq}):\n"
            "    {acc} = 0\n"
            "    {out} = []\n"
            "    for {val} in {seq}:\n"
            "        {acc} += {val}\n"
            "        {out}.append({acc})\n"
            "    return {out}\n",
            "def {fn}({seq}):\n"
            "    import itertools\n"
            "    return list(itertools.accumulate({seq}))\n",
        ),
    ),
    FunctionFamily(
        key="strip_html",
        description="Remove HTML tags from a string, keeping only the text content.",
        query="strip html tags from text",
        fn_names=("strip_html", "remove_tags", "html_to_text"),
        slots=("s", "out", "val"),
        variants=(
            "def {fn}({s}):\n"
            "    import re\n"
            "    return re.sub(r'<[^>]+>', '', {s})\n",
            "def {fn}({s}):\n"
            "    {out} = []\n"
            "    inside = False\n"
            "    for {val} in {s}:\n"
            "        if {val} == '<':\n"
            "            inside = True\n"
            "        elif {val} == '>':\n"
            "            inside = False\n"
            "        elif not inside:\n"
            "            {out}.append({val})\n"
            "    return ''.join({out})\n",
        ),
    ),
    FunctionFamily(
        key="safe_get",
        description="Fetch a nested value from a dictionary by a dotted path with a default.",
        query="get nested dictionary value by path",
        fn_names=("safe_get", "dig", "get_path"),
        slots=("d", "key", "val"),
        variants=(
            "def {fn}({d}, path, default=None):\n"
            "    {val} = {d}\n"
            "    for {key} in path.split('.'):\n"
            "        if not isinstance({val}, dict) or {key} not in {val}:\n"
            "            return default\n"
            "        {val} = {val}[{key}]\n"
            "    return {val}\n",
            "def {fn}({d}, path, default=None):\n"
            "    try:\n"
            "        for {key} in path.split('.'):\n"
            "            {d} = {d}[{key}]\n"
            "        return {d}\n"
            "    except (KeyError, TypeError):\n"
            "        return default\n",
        ),
    ),
    FunctionFamily(
        key="retry_call",
        description="Call a function, retrying a fixed number of times on exception.",
        query="retry a function call on failure",
        fn_names=("retry_call", "with_retries", "call_with_retry"),
        slots=("n", "idx"),
        variants=(
            "def {fn}(func, {n}=3):\n"
            "    last = None\n"
            "    for {idx} in range({n}):\n"
            "        try:\n"
            "            return func()\n"
            "        except Exception as exc:\n"
            "            last = exc\n"
            "    raise last\n",
            "def {fn}(func, {n}=3):\n"
            "    while True:\n"
            "        {n} -= 1\n"
            "        try:\n"
            "            return func()\n"
            "        except Exception:\n"
            "            if {n} <= 0:\n"
            "                raise\n",
        ),
    ),
    FunctionFamily(
        key="slugify",
        description="Convert a title string into a lowercase URL slug with hyphens.",
        query="convert text to a url slug",
        fn_names=("slugify", "to_slug", "make_slug"),
        slots=("s", "w", "out"),
        variants=(
            "def {fn}({s}):\n"
            "    import re\n"
            "    cleaned = re.sub(r'[^a-z0-9]+', '-', {s}.lower())\n"
            "    return cleaned.strip('-')\n",
            "def {fn}({s}):\n"
            "    {out} = []\n"
            "    for {w} in {s}.lower().split():\n"
            "        {out}.append(''.join(c for c in {w} if c.isalnum()))\n"
            "    return '-'.join(p for p in {out} if p)\n",
        ),
    ),
    FunctionFamily(
        key="roman",
        description="Convert an integer into its Roman numeral representation.",
        query="convert number to roman numerals",
        fn_names=("to_roman", "roman_numeral", "int_to_roman"),
        slots=("n", "out", "val"),
        variants=(
            "def {fn}({n}):\n"
            "    pairs = [(1000, 'M'), (900, 'CM'), (500, 'D'), (400, 'CD'),\n"
            "             (100, 'C'), (90, 'XC'), (50, 'L'), (40, 'XL'),\n"
            "             (10, 'X'), (9, 'IX'), (5, 'V'), (4, 'IV'), (1, 'I')]\n"
            "    {out} = []\n"
            "    for {val}, symbol in pairs:\n"
            "        while {n} >= {val}:\n"
            "            {out}.append(symbol)\n"
            "            {n} -= {val}\n"
            "    return ''.join({out})\n",
            "def {fn}({n}):\n"
            "    pairs = ((1000, 'M'), (900, 'CM'), (500, 'D'), (400, 'CD'),\n"
            "             (100, 'C'), (90, 'XC'), (50, 'L'), (40, 'XL'),\n"
            "             (10, 'X'), (9, 'IX'), (5, 'V'), (4, 'IV'), (1, 'I'))\n"
            "    if {n} == 0:\n"
            "        return ''\n"
            "    for {val}, symbol in pairs:\n"
            "        if {n} >= {val}:\n"
            "            return symbol + {fn}({n} - {val})\n",
        ),
    ),
    FunctionFamily(
        key="mode",
        description="Find the most common value in a sequence.",
        query="most common value in a list",
        fn_names=("mode", "most_common_value", "majority"),
        slots=("seq", "d", "val"),
        variants=(
            "def {fn}({seq}):\n"
            "    from collections import Counter\n"
            "    return Counter({seq}).most_common(1)[0][0]\n",
            "def {fn}({seq}):\n"
            "    {d} = {{}}\n"
            "    for {val} in {seq}:\n"
            "        {d}[{val}] = {d}.get({val}, 0) + 1\n"
            "    return max({d}, key={d}.get)\n",
            "def {fn}({seq}):\n"
            "    import statistics\n"
            "    return statistics.mode({seq})\n",
        ),
    ),
    FunctionFamily(
        key="matmul",
        description="Multiply two matrices represented as nested lists.",
        query="multiply two matrices",
        fn_names=("matmul", "matrix_multiply", "mat_product"),
        slots=("out", "idx", "acc"),
        variants=(
            "def {fn}(a, b):\n"
            "    rows, inner, cols = len(a), len(b), len(b[0])\n"
            "    {out} = [[0] * cols for _ in range(rows)]\n"
            "    for i in range(rows):\n"
            "        for j in range(cols):\n"
            "            {acc} = 0\n"
            "            for {idx} in range(inner):\n"
            "                {acc} += a[i][{idx}] * b[{idx}][j]\n"
            "            {out}[i][j] = {acc}\n"
            "    return {out}\n",
            "def {fn}(a, b):\n"
            "    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)]\n"
            "            for row in a]\n",
        ),
    ),
    FunctionFamily(
        key="valid_ip",
        description="Validate that a string is a well-formed IPv4 address.",
        query="validate an ipv4 address",
        fn_names=("valid_ip", "is_ipv4", "check_ip_address"),
        slots=("s", "w"),
        variants=(
            "def {fn}({s}):\n"
            "    parts = {s}.split('.')\n"
            "    if len(parts) != 4:\n"
            "        return False\n"
            "    for {w} in parts:\n"
            "        if not {w}.isdigit() or not 0 <= int({w}) <= 255:\n"
            "            return False\n"
            "    return True\n",
            "def {fn}({s}):\n"
            "    import re\n"
            "    octet = r'(25[0-5]|2[0-4]\\d|1?\\d?\\d)'\n"
            "    return bool(re.fullmatch(rf'{{octet}}(\\.{{octet}}){{{{3}}}}', {s}))\n",
        ),
    ),
    FunctionFamily(
        key="flatten_json",
        description="Flatten a nested dictionary into dotted-path keys.",
        query="flatten nested dictionary keys",
        fn_names=("flatten_json", "flatten_dict", "dotted_keys"),
        slots=("d", "out", "key", "val"),
        variants=(
            "def {fn}({d}):\n"
            "    {out} = {{}}\n"
            "    stack = [('', {d})]\n"
            "    while stack:\n"
            "        prefix, node = stack.pop()\n"
            "        for {key}, {val} in node.items():\n"
            "            dotted = prefix + '.' + {key} if prefix else {key}\n"
            "            if isinstance({val}, dict):\n"
            "                stack.append((dotted, {val}))\n"
            "            else:\n"
            "                {out}[dotted] = {val}\n"
            "    return {out}\n",
            "def {fn}({d}, prefix=''):\n"
            "    {out} = {{}}\n"
            "    for {key}, {val} in {d}.items():\n"
            "        dotted = prefix + '.' + {key} if prefix else {key}\n"
            "        if isinstance({val}, dict):\n"
            "            {out}.update({fn}({val}, dotted))\n"
            "        else:\n"
            "            {out}[dotted] = {val}\n"
            "    return {out}\n",
        ),
    ),
    FunctionFamily(
        key="interpolate",
        description="Linearly interpolate between two numbers by a ratio.",
        query="linear interpolation between values",
        fn_names=("lerp", "interpolate", "linear_interp"),
        slots=("lo", "hi", "val"),
        variants=(
            "def {fn}({lo}, {hi}, {val}):\n"
            "    return {lo} + ({hi} - {lo}) * {val}\n",
            "def {fn}({lo}, {hi}, {val}):\n"
            "    return {lo} * (1 - {val}) + {hi} * {val}\n",
        ),
    ),
    FunctionFamily(
        key="title_case",
        description="Capitalize the first letter of every word in a string.",
        query="capitalize every word in text",
        fn_names=("title_case", "capitalize_words", "to_title"),
        slots=("s", "w", "out"),
        variants=(
            "def {fn}({s}):\n"
            "    return ' '.join({w}.capitalize() for {w} in {s}.split())\n",
            "def {fn}({s}):\n"
            "    {out} = []\n"
            "    for {w} in {s}.split():\n"
            "        {out}.append({w}[0].upper() + {w}[1:].lower() if {w} else {w})\n"
            "    return ' '.join({out})\n",
        ),
    ),
    FunctionFamily(
        key="rate_limit_filter",
        description="Filter a stream of timestamped events to at most one per interval.",
        query="throttle events to one per time interval",
        fn_names=("rate_limit", "throttle_events", "debounce_stream"),
        slots=("seq", "out", "val", "thr"),
        variants=(
            "def {fn}({seq}, interval):\n"
            "    {out} = []\n"
            "    {thr} = None\n"
            "    for {val} in {seq}:\n"
            "        if {thr} is None or {val} - {thr} >= interval:\n"
            "            {out}.append({val})\n"
            "            {thr} = {val}\n"
            "    return {out}\n",
            "def {fn}({seq}, interval):\n"
            "    kept = []\n"
            "    last = float('-inf')\n"
            "    for {val} in {seq}:\n"
            "        if {val} - last >= interval:\n"
            "            kept.append({val})\n"
            "            last = {val}\n"
            "    return kept\n",
        ),
    ),
)


def render_variant(
    family: FunctionFamily, variant: int, seed: int = 0
) -> tuple[str, str]:
    """Render one concrete function: returns ``(function_name, source)``.

    ``seed`` steers identifier choice: the function name cycles through
    the family's synonyms and each slot gets a distinct local name from
    its pool, so equal seeds reproduce identical sources.
    """
    template = family.variants[variant % len(family.variants)]
    rng = random.Random((zlib.crc32(family.key.encode()) & 0xFFFF) * 1_000_003 + seed)
    # Both the function name and the locals vary with the seed: same-variant
    # renders are *renamed* clones (identical structure, different surface),
    # which is what separates structural from surface-form search.
    fn_name = family.fn_names[(variant + seed) % len(family.fn_names)]

    chosen: dict[str, str] = {"fn": fn_name}
    used: set[str] = {fn_name}
    for slot in family.slots:
        pool = [n for n in NAME_POOLS[slot] if n not in used]
        if not pool:  # pragma: no cover - pools are large enough
            pool = list(NAME_POOLS[slot])
        name = rng.choice(pool)
        chosen[slot] = name
        used.add(name)
    return fn_name, template.format(**chosen)
