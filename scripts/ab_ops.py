#!/usr/bin/env python3
"""The former name of `scripts/measure.py ab`: runs it with the same arguments."""

import sys

import measure

if __name__ == "__main__":
    sys.exit(measure.main(["ab", *sys.argv[1:]]))
