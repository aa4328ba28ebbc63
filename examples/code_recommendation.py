"""Code recommendation from partial snippets (the paper's §VI).

Seeds the registry with PEs from the synthetic CodeSearchNet-PE corpus,
then plays the role of a developer who has typed only the beginning of a
new PE and asks Laminar for recommendations:

* the default structural (SPT/Aroma) recommendation, robust to missing
  code and renamed variables;
* the ``--embedding_type llm`` (ReACC) fallback, good for near-clones;
* the full Aroma pipeline (prune → rerank → cluster) showing the pruned
  code pattern per cluster.

Run:  python examples/code_recommendation.py
"""

from repro.aroma.recommend import AromaRecommender
from repro.datasets import generate_corpus
from repro.eval.dropper import drop_suffix
from repro.laminar import LaminarClient


def main() -> None:
    corpus = generate_corpus(120)
    client = LaminarClient()

    print(f"registering {len(corpus)} PEs from the CodeSearchNet-PE corpus...")
    for item in corpus[:120]:
        client.register_PE(
            item.pe_source, name=item.pe_name, description=item.description
        )

    # A developer starts writing a moving-average PE and stops mid-way.
    donor = next(item for item in corpus if item.family == "moving_average")
    partial = drop_suffix(donor.function_source, 0.5)
    print("\n--- the developer has typed ---")
    print(partial)

    print("\n=== structural recommendation (default, 'spt') ===")
    for hit in client.code_Recommendation(partial, threshold=6.0):
        print(f"  score={hit['score']:>6}  {hit['peName']}: {hit['description'][:50]}")

    print("\n=== dense retriever recommendation ('llm' / ReACC) ===")
    for hit in client.code_Recommendation(partial, embedding_type="llm"):
        print(f"  score={hit['score']:>6}  {hit['peName']}: {hit['description'][:50]}")

    print("\n=== full Aroma pipeline: prune + rerank + cluster ===")
    recommender = AromaRecommender().fit(
        [(item.pe_name, item.pe_source, {"family": item.family}) for item in corpus]
    )
    for rec in recommender.recommend(partial, top_n=3):
        print(
            f"  {rec.snippet_id} (cluster of {rec.cluster_size}, "
            f"score {rec.score:.3f})"
        )
        print(f"    pattern: {rec.pruned_code[:100]}...")

    # The paper's Fig 9 one-liner query.
    print("\n=== Fig 9 query: random.randint(1, 1000) ===")
    client.register_PE(
        "class NumberProducer(ProducerPE):\n"
        '    """The number producer class."""\n'
        "    def _process(self, inputs):\n"
        "        return random.randint(1, 1000)\n"
    )
    for hit in client.code_Recommendation("random.randint(1, 1000)"):
        print(f"  score={hit['score']:>6}  {hit['peName']}")


if __name__ == "__main__":
    main()
