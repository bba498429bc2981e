"""End-to-end benchmark of the repro-mine CLI; see README.md."""
