"""Unit tests for context-label identity."""

from repro.groups import label_type, mint_label


class TestLabels:
    def test_labels_unique_across_creators_and_sequences(self):
        labels = {mint_label("tracker", creator, seq)
                  for creator in range(10) for seq in range(1, 11)}
        assert len(labels) == 100

    def test_label_embeds_type_and_creator(self):
        label = mint_label("fire", 17, 1)
        assert label == "fire#17.1"
        assert label_type(label) == "fire"

    def test_minting_is_stateless_and_deterministic(self):
        assert mint_label("t", 3, 2) == mint_label("t", 3, 2)

    def test_label_type_tolerates_plain_strings(self):
        assert label_type("noseparator") == "noseparator"
