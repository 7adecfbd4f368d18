import sys

from heliotilt.cli import main

sys.exit(main())
