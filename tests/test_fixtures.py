import subprocess
import sys
from pathlib import Path

import pytest

from deepconn.ingest import serialize_reviews
from deepconn.synthetic import embedding_file_text, make_sample_corpus

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def test_fixtures_regenerate_byte_for_byte(sample_reviews_path, toy_embeddings_path):
    # The calls tools/make_fixtures.py makes, compared in memory.
    records = make_sample_corpus(n_reviews=1000, n_users=50, n_items=40, seed=13)
    assert (serialize_reviews(records).encode("utf-8")
            == sample_reviews_path.read_bytes())
    assert (embedding_file_text(dim=50, seed=7).encode("utf-8")
            == toy_embeddings_path.read_bytes())


# 03 (gradient checking, about 14 s) and 06 (architecture grid, about 46 s on
# two cores) are left out to keep the suite quick.
@pytest.mark.parametrize("demo", ["01_dataset_overview.py", "02_tokenize_and_embed.py",
                                  "04_train_and_evaluate.py", "05_cf_baseline.py"])
def test_quick_demo_runs(demo):
    proc = subprocess.run([sys.executable, str(DEMOS / demo)],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
