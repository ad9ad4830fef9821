#!/usr/bin/env python3
"""The former name of `scripts/measure.py write`: runs it with the same arguments."""

import sys

import measure

if __name__ == "__main__":
    sys.exit(measure.main(["write", *sys.argv[1:]]))
