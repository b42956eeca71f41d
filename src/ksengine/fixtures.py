"""The reference network: four link types, five nodes, three rules.

The rows are reproduced as printed in their source material, quirks included:
node N_2 pairs the machine value "Bush" with the word "Neumann", node N_4 does
not exist (ids jump from N_3 to N_5), N_3's machine value keeps the original
"Sting: Gray" typo, and the first rule ships in both of its printed readings
(a two-type chain and a co-citation pattern). Downstream tests lean on these
quirks, so do not tidy them.
"""

from __future__ import annotations

from .rules import PatternAtom, Rule
from .sln import ClassRef, FileRef, Network, RepBundle
from .state import EngineState, new_state

ANCHOR_ROOT = "knowledge"

# anchor id -> display name, one category per distinct Rep(K) phrase
ANCHORS = {
    "Number": "Number",
    "Write": "Write",
    "publish": "publish",
    "reference": "reference",
    "Turing-machine": "Turing machine",
    "Intelligent-machine": "Intelligent machine",
    "Turing-test": "Turing test",
    "Computer-system-architecture": "Computer system architecture",
    "Database": "Database",
    "transaction": "transaction",
    "Information-storage": "Information storage",
    "information": "information",
    "retrieval": "retrieval",
    "Hardware": "Hardware",
    "Software": "Software",
    "Cite": "Cite",
    "Occur": "Occur",
    "Topic": "Topic",
    "Transitivity": "Transitivity",
}


def build_reference_network() -> Network:
    net = Network()
    net.categories.add(ANCHOR_ROOT, "knowledge", None)
    for anchor_id, name in ANCHORS.items():
        net.categories.add(anchor_id, name, ANCHOR_ROOT)

    net.add_link_type(
        RepBundle(word="Greater", rep_c=">",
                  rep_h="X is greater than Y in number", rep_k=("Number",)),
        type_id="L_1",
    )
    net.add_link_type(
        RepBundle(word="Equal", rep_c="=",
                  rep_h="X is equal to Y in number", rep_k=("Number",)),
        type_id="L_2",
    )
    net.add_link_type(
        RepBundle(word="Publish", rep_c="Publish",
                  rep_h="X's writing Y is printed and publicized",
                  rep_k=("Write", "publish")),
        type_id="L_3",
    )
    net.add_link_type(
        RepBundle(word="Cite", rep_c="Cite",
                  rep_h="X's published writing uses Y's published writing",
                  rep_k=("reference",)),
        type_id="L_4",
    )
    # Head type for the co-citation rule; the source tables use the phrase
    # without assigning it a row of its own.
    net.add_link_type(
        RepBundle(word="SameTopic", rep_c="SameTopic",
                  rep_h="X and Y are on the same topic", rep_k=("Topic",)),
        type_id="SameTopic",
    )

    net.add_node(
        RepBundle(
            word="Turing",
            rep_c="Turing",
            rep_h=(
                "British mathematician, pioneer of computer science "
                "Summary of Turing's biography in Wikipedia."
            ),
            rep_k=("Turing-machine", "Intelligent-machine", "Turing-test"),
        ),
        node_id="N_1",
    )
    # As printed: the machine value says Bush while the word says Neumann.
    net.add_node(
        RepBundle(
            word="Neumann",
            rep_c="Bush",
            rep_h=(
                "Pioneer of computer system architecture. "
                "Summary of Neumann's biography in Wikipedia."
            ),
            rep_k=("Computer-system-architecture",),
        ),
        node_id="N_2",
    )
    # As printed: "Sting" rather than "String", kept verbatim.
    net.add_node(
        RepBundle(
            word="Gray",
            rep_c="Sting: Gray",
            rep_h="Pioneer of database Summary of Gray's biography in Wikipedia.",
            rep_k=("Database", "transaction"),
        ),
        node_id="N_3",
    )
    # There is no N_4; the printed ids jump straight to N_5.
    net.add_node(
        RepBundle(
            word="Bush, Think",
            rep_c=FileRef("Bush-paper.text"),
            rep_h=(
                "Paper: V. Bush, As we may think, Atlantic Monthly, July (1945) "
                "101–108. Summary of paper: It foresaw multi-media and the web, "
                "and proposed Memex for the first time."
            ),
            rep_k=("Information-storage", "information", "retrieval"),
        ),
        node_id="N_5",
    )
    net.add_node(
        RepBundle(
            word="Computer",
            rep_c=ClassRef("Computer"),
            rep_h=(
                "A general-purpose programmable machine. "
                "Summary of computer according to Wikipedia."
            ),
            rep_k=("Hardware", "Software"),
        ),
        node_id="N_6",
    )

    rule_one_rep = RepBundle(
        word="Cite, co-occur",
        rep_c=(
            "If (L_1 in (N_1, N_2) & L_2 in (N_2, N_3)), "
            "then add L_3 to (N_1, N_3), in the connection table"
        ),
        rep_h="If A cites C , and B cites C , then A and B are on the same topic.",
        rep_k=("Cite", "Occur", "Topic"),
    )
    # The printed rule reads two ways; both are shipped rather than picking one.
    net.add_rule(Rule(
        id="R_1_chain",
        rep=rule_one_rep,
        body=(PatternAtom("?A", "L_1", "?B"), PatternAtom("?B", "L_2", "?C")),
        head=(PatternAtom("?A", "L_3", "?C"),),
    ))
    net.add_rule(Rule(
        id="R_1_cocite",
        rep=rule_one_rep,
        body=(PatternAtom("?A", "L_4", "?C"), PatternAtom("?B", "L_4", "?C")),
        head=(PatternAtom("?A", "SameTopic", "?B"),),
    ))
    net.add_rule(Rule(
        id="R_2",
        rep=RepBundle(
            word="Equal",
            rep_c="If N_1=N_2 and N_2=N_3, then N_1=N_3",
            rep_h=(
                "If A is identical to B , and B is identical to C , "
                "A is identical to C ."
            ),
            rep_k=("Transitivity",),
        ),
        body=(PatternAtom("?A", "L_2", "?B"), PatternAtom("?B", "L_2", "?C")),
        head=(PatternAtom("?A", "L_2", "?C"),),
    ))
    return net


def build_reference_state() -> EngineState:
    state = new_state()
    state.network = build_reference_network()
    return state


if __name__ == "__main__":
    from .ksif import export_state

    print(export_state(build_reference_state()), end="")
