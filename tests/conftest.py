"""Shared test helpers."""

import resource

import pytest


def _cap_address_space():
    # a regression forms a huge table, power or letter set: cap the child's
    # address space so that it fails at 1 GiB instead of filling the machine
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.fixture
def cap_memory():
    """A preexec_fn that caps a child process's address space at 1 GiB."""
    return _cap_address_space
