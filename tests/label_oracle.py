"""Reference rule matcher: linear passes over the rules in file order.

``botmeter.labeling.RuleIndex`` must pick the same rule as ``match_rule``
on every flow.
"""

from botmeter.features import FeatureVector
from botmeter.labeling import WILDCARD, LabelRule


def _ends_match(rule: LabelRule, flow: FeatureVector, a_ip, a_port, b_ip, b_port) -> bool:
    if rule.protocol is not None and flow.protocol != rule.protocol:
        return False
    if rule.src_ip != WILDCARD and rule.src_ip != a_ip:
        return False
    if rule.src_port is not None and rule.src_port != a_port:
        return False
    if rule.dst_ip != WILDCARD and rule.dst_ip != b_ip:
        return False
    if rule.dst_port is not None and rule.dst_port != b_port:
        return False
    return True


def matches_forward(rule: LabelRule, flow: FeatureVector) -> bool:
    return rule.in_window(flow) and _ends_match(
        rule, flow, flow.src_ip, flow.src_port, flow.dst_ip, flow.dst_port)


def matches_reversed(rule: LabelRule, flow: FeatureVector) -> bool:
    return rule.in_window(flow) and _ends_match(
        rule, flow, flow.dst_ip, flow.dst_port, flow.src_ip, flow.src_port)


def match_rule(flow: FeatureVector, rules: list[LabelRule]) -> LabelRule | None:
    """First match by precedence tier, then by rule order within the tier."""
    for rule in rules:
        if not rule.has_wildcard and matches_forward(rule, flow):
            return rule
    for rule in rules:
        if not rule.has_wildcard and matches_reversed(rule, flow):
            return rule
    for rule in rules:
        if rule.has_wildcard and (matches_forward(rule, flow)
                                  or matches_reversed(rule, flow)):
            return rule
    return None
